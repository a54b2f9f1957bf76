#include "util/config.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace railcorr::util {
namespace {

TEST(ParseSpec, KeysValuesCommentsAndBlankLines) {
  const auto entries = parse_spec(
      "# leading comment\n"
      "\n"
      "radio.hp_eirp_dbm = 64\n"
      "link.noise_model = fronthaul_aware   # trailing comment\n"
      "  timetable.trains_per_hour   =   8.5  \n");
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].key, "radio.hp_eirp_dbm");
  EXPECT_EQ(entries[0].value, "64");
  EXPECT_EQ(entries[0].line, 3);
  EXPECT_EQ(entries[1].key, "link.noise_model");
  EXPECT_EQ(entries[1].value, "fronthaul_aware");
  EXPECT_EQ(entries[2].key, "timetable.trains_per_hour");
  EXPECT_EQ(entries[2].value, "8.5");
  EXPECT_EQ(entries[2].line, 5);
}

TEST(ParseSpec, WindowsLineEndings) {
  const auto entries = parse_spec("a = 1\r\nb = 2\r\n");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[1].value, "2");
}

TEST(ParseSpec, RejectsMalformedLines) {
  EXPECT_THROW(parse_spec("no equals sign here"), ConfigError);
  EXPECT_THROW(parse_spec("= value without key"), ConfigError);
  EXPECT_THROW(parse_spec("key ="), ConfigError);
  try {
    parse_spec("ok = 1\nbroken line\n");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos);
  }
}

TEST(ParseValues, TypedParsersAndErrors) {
  EXPECT_DOUBLE_EQ(parse_double({"k", "3.5e9", 1}), 3.5e9);
  EXPECT_DOUBLE_EQ(parse_double({"k", "-132", 1}), -132.0);
  EXPECT_EQ(parse_int({"k", "10", 1}), 10);
  EXPECT_EQ(parse_u64({"k", "1592639710", 1}), 1592639710ULL);
  EXPECT_EQ(parse_u64({"k", "18446744073709551615", 1}),
            18446744073709551615ULL);
  EXPECT_TRUE(parse_bool({"k", "true", 1}));
  EXPECT_FALSE(parse_bool({"k", "false", 1}));

  EXPECT_THROW(parse_double({"k", "fast", 2}), ConfigError);
  EXPECT_THROW(parse_double({"k", "1.5x", 2}), ConfigError);
  EXPECT_THROW(parse_int({"k", "1.5", 2}), ConfigError);
  // Whole token only, and a value that fits (2^64 + 1 is not 1).
  for (const char* bad : {"18446744073709551617", "-1", "+1", " 1", "1x"}) {
    EXPECT_THROW(parse_u64({"k", bad, 2}), ConfigError) << bad;
  }
  EXPECT_THROW(parse_bool({"k", "yes", 2}), ConfigError);
  try {
    parse_double({"radio.hp_eirp_dbm", "sixty-four", 7});
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("radio.hp_eirp_dbm"), std::string::npos);
    EXPECT_NE(what.find("line 7"), std::string::npos);
  }
}

TEST(FormatValues, DoublesRoundTripExactly) {
  const double samples[] = {0.0,          1.0,       -132.0,  3.5e9,
                            200.0 / 3.6,  0.1,       5.84,    1e-12,
                            29.281234567, -0.5673339726684248};
  for (const double v : samples) {
    const std::string text = format_double(v);
    const double back = parse_double({"k", text, 0});
    EXPECT_EQ(back, v) << text;
  }
}

TEST(FormatValues, IntBoolU64) {
  EXPECT_EQ(format_int(-42), "-42");
  EXPECT_EQ(format_u64(0x5EEDC0DEULL), "1592639710");
  EXPECT_EQ(format_bool(true), "true");
  EXPECT_EQ(format_bool(false), "false");
}

}  // namespace
}  // namespace railcorr::util
