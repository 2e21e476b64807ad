// Tests for the donkeytrace CLI's argument parser and IPv4 parsing.
#include <gtest/gtest.h>

#include "cli_args.hpp"

namespace dtr::cli {
namespace {

Args make_args(std::vector<std::string> tokens) {
  static std::vector<std::string> storage;
  storage = std::move(tokens);
  storage.insert(storage.begin(), "donkeytrace");
  std::vector<char*> argv;
  argv.reserve(storage.size());
  for (auto& s : storage) argv.push_back(s.data());
  return Args(static_cast<int>(argv.size()), argv.data());
}

TEST(CliArgs, CommandAndPositional) {
  Args args = make_args({"analyze", "data.xml", "extra"});
  EXPECT_EQ(args.command(), "analyze");
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "data.xml");
}

TEST(CliArgs, SpaceSeparatedOptions) {
  Args args = make_args({"campaign", "--seed", "7", "--clients", "100",
                         "--server-port", "65535"});
  EXPECT_EQ(args.get_uint<std::uint64_t>("seed", 0), 7u);
  EXPECT_EQ(args.get_uint<std::uint64_t>("clients", 0), 100u);
  EXPECT_EQ(args.get_uint<std::uint16_t>("server-port", 0), 65535u);
}

TEST(CliArgs, EqualsSeparatedOptions) {
  Args args = make_args({"campaign", "--seed=9", "--xml=out.xml"});
  EXPECT_EQ(args.get_uint<std::uint64_t>("seed", 0), 9u);
  EXPECT_EQ(args.get("xml"), "out.xml");
}

TEST(CliArgs, BooleanFlags) {
  Args args = make_args({"campaign", "--background", "--seed", "1", "--xml"});
  EXPECT_TRUE(args.has("background"));
  EXPECT_FALSE(args.has("verbose"));
  // A valued option given without a value is present, but reading its
  // value is an error — never the path "true".
  EXPECT_TRUE(args.has("xml"));
  try {
    (void)args.get("xml");
    FAIL() << "--xml without a value read as a path";
  } catch (const InvalidValue& e) {
    EXPECT_STREQ(e.what(), "invalid value for --xml: ''");
  }
  EXPECT_THROW((void)args.get("background", "x"), InvalidValue);
  EXPECT_THROW((void)args.get_f64("background", 1.0), InvalidValue);
  EXPECT_THROW((void)args.get_ipv4("background", 0), InvalidValue);
  // An explicitly empty value is a value.
  Args empty = make_args({"campaign", "--xml="});
  EXPECT_EQ(empty.get("xml", "dflt"), "");
}

TEST(CliArgs, FallbacksOnMissingRejectsMalformed) {
  Args args = make_args({"campaign", "--seed", "notanumber", "--hours", "4B",
                         "--tcp-quiet", "1.5x", "--server-ip", "10.0.0.300",
                         "--clients", "4294967356", "--server-port", "65536",
                         "--workers"});
  EXPECT_EQ(args.get_uint<std::uint64_t>("missing", 7), 7u);
  EXPECT_EQ(args.get("missing", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(args.get_f64("missing", 1.5), 1.5);
  EXPECT_EQ(args.get_ipv4("missing", 0xC0A80001), 0xC0A80001u);
  try {
    (void)args.get_uint<std::uint64_t>("seed", 42);
    FAIL() << "malformed --seed accepted";
  } catch (const InvalidValue& e) {
    EXPECT_STREQ(e.what(), "invalid value for --seed: 'notanumber'");
  }
  EXPECT_THROW((void)args.get_uint<std::uint64_t>("hours", 48), InvalidValue);
  EXPECT_THROW((void)args.get_f64("tcp-quiet", 1.3), InvalidValue);
  EXPECT_THROW((void)args.get_ipv4("server-ip", 0), InvalidValue);
  // A typed option given without a value is malformed, not defaulted.
  EXPECT_THROW((void)args.get_uint<std::uint64_t>("workers", 0), InvalidValue);
  // A value that parses but does not fit the field is rejected, not
  // wrapped (4294967356 is 2^32 + 60).
  EXPECT_EQ(args.get_uint<std::uint64_t>("clients", 0), 4294967356u);
  try {
    (void)args.get_uint<std::uint32_t>("clients", 2000);
    FAIL() << "out-of-range --clients accepted";
  } catch (const InvalidValue& e) {
    EXPECT_STREQ(e.what(), "invalid value for --clients: '4294967356'");
  }
  EXPECT_THROW((void)args.get_uint<std::uint16_t>("server-port", 4665),
               InvalidValue);
}

TEST(CliArgs, FloatOptions) {
  Args args = make_args({"campaign", "--tcp-quiet", "2.75"});
  EXPECT_DOUBLE_EQ(args.get_f64("tcp-quiet", 0.0), 2.75);
}

TEST(CliArgs, UnusedDetectsTypos) {
  Args args = make_args({"campaign", "--sead", "7", "--clients", "5"});
  EXPECT_EQ(args.get_uint<std::uint64_t>("seed", 0), 0u);
  EXPECT_EQ(args.get_uint<std::uint64_t>("clients", 0), 5u);
  auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "sead");
}

TEST(CliArgs, FlagFollowedByFlag) {
  Args args = make_args({"campaign", "--background", "--xml", "o.xml"});
  EXPECT_TRUE(args.has("background"));
  EXPECT_EQ(args.get("xml"), "o.xml");
}

TEST(ParseIpv4, ValidAddresses) {
  EXPECT_EQ(parse_ipv4("0.0.0.0"), 0u);
  EXPECT_EQ(parse_ipv4("255.255.255.255"), 0xFFFFFFFFu);
  EXPECT_EQ(parse_ipv4("192.168.0.1"), 0xC0A80001u);
  EXPECT_EQ(parse_ipv4("10.0.0.1"), 0x0A000001u);
}

TEST(ParseIpv4, InvalidAddresses) {
  EXPECT_FALSE(parse_ipv4(""));
  EXPECT_FALSE(parse_ipv4("1.2.3"));
  EXPECT_FALSE(parse_ipv4("1.2.3.4.5"));
  EXPECT_FALSE(parse_ipv4("256.0.0.1"));
  EXPECT_FALSE(parse_ipv4("1.2.3.x"));
  EXPECT_FALSE(parse_ipv4("1..2.3"));
  EXPECT_FALSE(parse_ipv4("1.2.3.4 "));
  EXPECT_FALSE(parse_ipv4("0001.2.3.4"));
}

}  // namespace
}  // namespace dtr::cli
