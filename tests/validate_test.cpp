// Dataset-validator tests: pipeline output always validates; every
// invariant violation is detected.
#include <gtest/gtest.h>

#include <sstream>

#include "core/campaign_runner.hpp"
#include "xmlio/schema.hpp"
#include "xmlio/validate.hpp"

namespace dtr::xmlio {
namespace {

anon::AnonEvent query(SimTime t, anon::AnonClientId peer) {
  anon::AnonEvent ev;
  ev.time = t;
  ev.peer = peer;
  ev.is_query = true;
  ev.message = anon::AServStatReq{};
  return ev;
}

TEST(Validator, AcceptsWellFormedSequence) {
  DatasetValidator v;
  v.consume(query(0, 0));
  v.consume(query(5, 1));
  v.consume(query(5, 0));  // revisits are fine
  anon::AnonEvent ask;
  ask.time = 6;
  ask.peer = 2;
  ask.is_query = true;
  ask.message = anon::AGetSourcesReq{{0, 1}};
  v.consume(ask);
  EXPECT_TRUE(v.valid()) << v.violations()[0].message;
}

TEST(Validator, V1TimeRegression) {
  DatasetValidator v;
  v.consume(query(10, 0));
  v.consume(query(5, 1));
  ASSERT_FALSE(v.valid());
  EXPECT_EQ(v.violations()[0].rule, "V1");
  EXPECT_EQ(v.violations()[0].event_index, 1u);
}

TEST(Validator, V2ClientTokenOutOfOrder) {
  DatasetValidator v;
  v.consume(query(0, 0));
  v.consume(query(1, 5));  // tokens 1..4 never appeared
  ASSERT_FALSE(v.valid());
  EXPECT_EQ(v.violations()[0].rule, "V2");
}

TEST(Validator, V2EmbeddedProviderTokens) {
  DatasetValidator v;
  anon::AnonEvent found;
  found.time = 0;
  found.peer = 0;
  found.is_query = false;
  found.message = anon::AFoundSourcesRes{0, {{3, 4662}}};  // client 3 early
  v.consume(found);
  ASSERT_FALSE(v.valid());
  EXPECT_EQ(v.violations()[0].rule, "V2");
}

TEST(Validator, V3FileTokenOutOfOrder) {
  DatasetValidator v;
  anon::AnonEvent ask;
  ask.time = 0;
  ask.peer = 0;
  ask.is_query = true;
  ask.message = anon::AGetSourcesReq{{7}};  // file 7 before files 0..6
  v.consume(ask);
  ASSERT_FALSE(v.valid());
  EXPECT_EQ(v.violations()[0].rule, "V3");
}

TEST(Validator, V4DirectionMismatch) {
  DatasetValidator v;
  anon::AnonEvent ev;
  ev.time = 0;
  ev.peer = 0;
  ev.is_query = false;  // but statreq is a query
  ev.message = anon::AServStatReq{};
  v.consume(ev);
  ASSERT_FALSE(v.valid());
  EXPECT_EQ(v.violations()[0].rule, "V4");
}

TEST(Validator, V5OversizedFile) {
  DatasetValidator v;
  anon::AnonEvent pub;
  pub.time = 0;
  pub.peer = 0;
  pub.is_query = true;
  anon::APublishReq req;
  anon::AnonFileEntry e;
  e.file = 0;
  e.provider = 0;
  e.meta.size_kb = 0xFFFFFFFFu;  // ~4 TB: impossible in the protocol
  req.files.push_back(e);
  pub.message = std::move(req);
  v.consume(pub);
  ASSERT_FALSE(v.valid());
  EXPECT_EQ(v.violations()[0].rule, "V5");
}

TEST(Validator, ViolationListIsBounded) {
  DatasetValidator v;
  for (int i = 0; i < 3000; ++i) {
    v.consume(query(static_cast<SimTime>(3000 - i), 0));  // V1 every time
  }
  EXPECT_LE(v.violations().size(), 1000u);
}

TEST(Validator, DocumentEntryPointReportsParseErrors) {
  std::istringstream in("<capture><msg t=\"1\" broken");
  auto violations = DatasetValidator::validate_document(in);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations.back().rule, "parse");
}

TEST(Validator, HostileTokenValuesAreFindingsNotAllocations) {
  // Token values at the edges of their types: one past the largest would
  // wrap, and a bitmap sized by them could not be allocated.  Each is a
  // token that skipped every token before it.
  struct Case {
    const char* msg;
    const char* rule;
  };
  for (const Case& c : {
           Case{R"(<msg t="1" peer="0" dir="q" kind="getsrc"><f id="18446744073709551615"/></msg>)", "V3"},
           Case{R"(<msg t="1" peer="0" dir="q" kind="getsrc"><f id="9000000000000000000"/></msg>)", "V3"},
           Case{R"(<msg t="1" peer="4294967295" dir="q" kind="statreq"></msg>)", "V2"},
       }) {
    std::istringstream in(std::string("<capture>") + c.msg + "</capture>");
    const auto violations = DatasetValidator::validate_document(in);
    ASSERT_EQ(violations.size(), 1u) << c.msg;
    EXPECT_EQ(violations[0].rule, c.rule) << c.msg;
  }
}

TEST(Validator, SkippedTokensStayInOrderAfterAFinding) {
  DatasetValidator v;
  v.consume(query(0, 0));
  v.consume(query(1, 3));  // skipped 1 and 2
  v.consume(query(2, 1));
  v.consume(query(3, 2));
  v.consume(query(4, 3));  // now in order
  ASSERT_EQ(v.violations().size(), 1u);
  EXPECT_EQ(v.violations()[0].rule, "V2");
  EXPECT_EQ(v.violations()[0].event_index, 1u);
}

TEST(Validator, PipelineOutputAlwaysValidates) {
  core::RunnerConfig cfg = core::RunnerConfig::tiny(61);
  cfg.buffer.capacity = 1 << 20;
  cfg.buffer.drain_rate = 1e9;
  cfg.buffer.stall_per_hour = 0.0;
  std::ostringstream xml;
  cfg.xml_out = &xml;
  core::CampaignRunner runner(cfg);
  core::CampaignReport report = runner.run();
  ASSERT_GT(report.pipeline.xml_events, 0u);

  std::istringstream in(xml.str());
  auto violations = DatasetValidator::validate_document(in);
  EXPECT_TRUE(violations.empty())
      << violations.size() << " violations; first: ["
      << violations.front().rule << "] " << violations.front().message
      << " at event " << violations.front().event_index;
}

TEST(Validator, LossyCaptureStillValidates) {
  // Capture losses drop whole frames; the dataset stays internally
  // consistent (order-of-appearance is defined by what *survived*).
  core::RunnerConfig cfg = core::RunnerConfig::tiny(62);
  cfg.buffer.capacity = 16;
  cfg.buffer.drain_rate = 20.0;
  cfg.campaign.flash_crowd_fraction = 0.6;
  cfg.campaign.flash_crowd_count = 1;
  cfg.campaign.flash_crowd_width = 20 * kSecond;
  std::ostringstream xml;
  cfg.xml_out = &xml;
  core::CampaignRunner runner(cfg);
  core::CampaignReport report = runner.run();
  EXPECT_GT(report.frames_lost, 0u) << "test needs real losses";

  std::istringstream in(xml.str());
  EXPECT_TRUE(DatasetValidator::validate_document(in).empty());
}

}  // namespace
}  // namespace dtr::xmlio
