#include "xmlio/validate.hpp"

#include <istream>

#include "xmlio/schema.hpp"

namespace dtr::xmlio {

void DatasetValidator::add(const char* rule, std::string message) {
  // Cap the violation list: a corrupt gigabyte dataset should not OOM the
  // validator reporting it.
  if (violations_.size() < 1000) {
    violations_.push_back(Violation{index_, rule, std::move(message)});
  }
}

// Tokens are handed out in order of appearance, so the tokens a valid
// dataset has shown so far are exactly [0, next): a token past `next`
// skipped the ones before it.  It is reported and not recorded, so the
// check keeps no per-token state and a hostile token value sizes nothing.

void DatasetValidator::check_client_token(anon::AnonClientId token) {
  if (token < next_client_) return;
  if (token == next_client_) {
    ++next_client_;
    return;
  }
  add("V2", "client token " + std::to_string(token) +
                " appeared before token " + std::to_string(next_client_));
}

void DatasetValidator::check_file_token(anon::AnonFileId token) {
  if (token < next_file_) return;
  if (token == next_file_) {
    ++next_file_;
    return;
  }
  add("V3", "file token " + std::to_string(token) +
                " appeared before token " + std::to_string(next_file_));
}

namespace {

constexpr std::uint32_t kMaxSizeKb = 0xFFFFFFFFu / 1024 + 1;

struct KindInfo {
  bool is_query = false;
  bool known = true;
};

struct DirVisitor {
  KindInfo operator()(const anon::AServStatReq&) { return {true}; }
  KindInfo operator()(const anon::AServStatRes&) { return {false}; }
  KindInfo operator()(const anon::AServerDescReq&) { return {true}; }
  KindInfo operator()(const anon::AServerDescRes&) { return {false}; }
  KindInfo operator()(const anon::AGetServerList&) { return {true}; }
  KindInfo operator()(const anon::AServerList&) { return {false}; }
  KindInfo operator()(const anon::AFileSearchReq&) { return {true}; }
  KindInfo operator()(const anon::AFileSearchRes&) { return {false}; }
  KindInfo operator()(const anon::AGetSourcesReq&) { return {true}; }
  KindInfo operator()(const anon::AFoundSourcesRes&) { return {false}; }
  KindInfo operator()(const anon::APublishReq&) { return {true}; }
  KindInfo operator()(const anon::APublishAck&) { return {false}; }
};

}  // namespace

struct DatasetValidator::TokenVisitor {
  DatasetValidator& v;

  void entry(const anon::AnonFileEntry& e) const {
    v.check_file_token(e.file);
    v.check_client_token(e.provider);
    if (e.meta.size_kb && *e.meta.size_kb > kMaxSizeKb) {
      v.add("V5", "file size " + std::to_string(*e.meta.size_kb) +
                      " KB exceeds the protocol's 32-bit byte field");
    }
  }
  void operator()(const anon::AFileSearchRes& m) const {
    for (const auto& e : m.results) entry(e);
  }
  void operator()(const anon::APublishReq& m) const {
    for (const auto& e : m.files) entry(e);
  }
  void operator()(const anon::AGetSourcesReq& m) const {
    for (auto f : m.files) v.check_file_token(f);
  }
  void operator()(const anon::AFoundSourcesRes& m) const {
    v.check_file_token(m.file);
    for (const auto& s : m.sources) v.check_client_token(s.client);
  }
  template <typename T>
  void operator()(const T&) const {}
};

void DatasetValidator::consume(const anon::AnonEvent& event) {
  // V1 — capture order.
  if (index_ > 0 && event.time < last_time_) {
    add("V1", "time " + std::to_string(event.time) + " < previous " +
                  std::to_string(last_time_));
  }
  last_time_ = event.time;

  // V4 — direction matches kind.
  KindInfo kind = std::visit(DirVisitor{}, event.message);
  if (kind.is_query != event.is_query) {
    add("V4", std::string("dir attribute contradicts message kind (dir=") +
                  (event.is_query ? "q" : "a") + ")");
  }

  // V2/V3/V5 — token order and size bounds, over every embedded token.
  check_client_token(event.peer);
  std::visit(TokenVisitor{*this}, event.message);

  ++index_;
}

std::vector<Violation> DatasetValidator::findings(
    const DatasetReader& reader) const {
  std::vector<Violation> out = violations_;
  if (!reader.ok()) out.push_back(Violation{index_, "parse", reader.error()});
  return out;
}

std::vector<Violation> DatasetValidator::validate_document(std::istream& in) {
  DatasetReader reader(in);
  DatasetValidator validator;
  while (auto ev = reader.next()) validator.consume(*ev);
  return validator.findings(reader);
}

}  // namespace dtr::xmlio
