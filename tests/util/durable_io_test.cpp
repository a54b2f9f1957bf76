/// The durability primitives under the orchestrator's on-disk
/// artifacts: EINTR-safe full reads/writes, atomic durable file
/// replacement, integrity trailers (write / verify / strip), and the
/// synced append-only log.
#include "util/durable_io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>

namespace railcorr::util {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "railcorr_dio_XXXXXX").string();
    if (::mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed");
    }
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  fs::path path;
};

TEST(DurableIo, WriteFullyAndReadFileFullyRoundTrip) {
  TempDir dir;
  const std::string path = (dir.path / "blob.bin").string();
  // Content with embedded NULs and no trailing newline — byte
  // fidelity, not line semantics.
  std::string content("abc\0def\nghi", 11);
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  EXPECT_TRUE(write_fully(fd, content.data(), content.size()));
  ::close(fd);

  const auto back = read_file_fully(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, content);
}

TEST(DurableIo, WriteFullyRejectsABadFd) {
  EXPECT_FALSE(write_fully(-1, "x", 1));
}

TEST(DurableIo, ReadFileFullyReturnsNulloptForMissingFile) {
  TempDir dir;
  EXPECT_FALSE(read_file_fully((dir.path / "absent").string()).has_value());
}

TEST(DurableIo, AtomicWriteFileReplacesContentAndLeavesNoTempFiles) {
  TempDir dir;
  const std::string path = (dir.path / "doc.txt").string();
  ASSERT_TRUE(atomic_write_file(path, "first\n"));
  ASSERT_TRUE(atomic_write_file(path, "second\n"));
  const auto back = read_file_fully(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, "second\n");
  // The staging temp file must not survive a successful write.
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST(DurableIo, AtomicWriteFileReportsUnwritableTargets) {
  std::string error;
  EXPECT_FALSE(atomic_write_file("/nonexistent-dir/doc.txt", "x", &error));
  EXPECT_FALSE(error.empty());
}

TEST(DurableIo, RenameDurableMovesAFileAcrossNames) {
  TempDir dir;
  const std::string from = (dir.path / "staged.tmp").string();
  const std::string to = (dir.path / "final.csv").string();
  ASSERT_TRUE(atomic_write_file(from, "payload\n"));
  std::string error;
  ASSERT_TRUE(rename_durable(from, to, &error)) << error;
  EXPECT_FALSE(fs::exists(from));
  const auto back = read_file_fully(to);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, "payload\n");

  EXPECT_FALSE(rename_durable((dir.path / "absent").string(), to, &error));
  EXPECT_FALSE(error.empty());
}

TEST(Hex16, RoundTripsAndParsesExactlySixteenLowercaseDigits) {
  EXPECT_EQ(hex16(0), "0000000000000000");
  EXPECT_EQ(hex16(0x0123456789abcdefULL), "0123456789abcdef");
  const std::uint64_t values[] = {0, 1, 0xfedcba9876543210ULL,
                                  ~std::uint64_t{0}};
  for (const std::uint64_t value : values) {
    std::uint64_t parsed = 0;
    ASSERT_TRUE(parse_hex16(hex16(value), parsed));
    EXPECT_EQ(parsed, value);
  }
  std::uint64_t out = 42;
  for (const char* bad : {"0123456789abcde", "0123456789abcdef0",
                          "0123456789ABCDEF", "0123456789abcdeg", ""}) {
    EXPECT_FALSE(parse_hex16(bad, out)) << bad;
  }
  EXPECT_EQ(out, 42u);
}

TEST(Hex, FixedWidthFieldsOfAnyWidthRoundTrip) {
  char digits[16];
  write_hex(0x1234abcdULL, 8, digits);
  EXPECT_EQ(std::string_view(digits, 8), "1234abcd");
  // Only the low 4 × width bits are written.
  write_hex(0xfedcba9876543210ULL, 4, digits);
  EXPECT_EQ(std::string_view(digits, 4), "3210");
  std::uint64_t parsed = 0;
  ASSERT_TRUE(parse_hex("00000007", parsed));
  EXPECT_EQ(parsed, 7u);
  ASSERT_TRUE(parse_hex("f", parsed));
  EXPECT_EQ(parsed, 15u);
  // Every byte: a lowercase hex digit parses to its value, any other
  // byte fails, alone or inside a field.
  const std::string_view hex = "0123456789abcdef";
  for (int byte = 0; byte < 256; ++byte) {
    const char c = static_cast<char>(byte);
    std::uint64_t out = 99;
    const std::size_t digit = hex.find(c);
    EXPECT_EQ(parse_hex(std::string_view(&c, 1), out),
              digit != std::string_view::npos)
        << byte;
    EXPECT_EQ(out, digit != std::string_view::npos ? digit : 99u) << byte;
    const std::string field = std::string("0a") + c + "7";
    EXPECT_EQ(parse_hex(field, out), digit != std::string_view::npos)
        << byte;
  }
  std::uint64_t out = 42;
  EXPECT_FALSE(parse_hex("", out));
  EXPECT_FALSE(parse_hex("00000000000000000", out));
  EXPECT_EQ(out, 42u);
}

TEST(IntegrityTrailer, RoundTripVerifiesAndStrips) {
  const std::string body = "banner\nheader\n0,1,2\n";
  const std::string document = with_integrity_trailer(body);
  EXPECT_NE(document.find("@railcorr-crc "), std::string::npos);

  const auto check = check_integrity_trailer(document);
  EXPECT_EQ(check.status, TrailerStatus::kVerified);
  EXPECT_EQ(check.body, body);
}

TEST(IntegrityTrailer, BodyWithoutNewlineGetsOneBeforeTheTrailer) {
  const std::string document = with_integrity_trailer("no-newline");
  const auto check = check_integrity_trailer(document);
  EXPECT_EQ(check.status, TrailerStatus::kVerified);
  EXPECT_EQ(check.body, "no-newline\n");
}

TEST(IntegrityTrailer, MissingTrailerIsDistinctFromCorrupt) {
  const auto check = check_integrity_trailer("banner\nrow\n");
  EXPECT_EQ(check.status, TrailerStatus::kMissing);
  EXPECT_EQ(check.body, "banner\nrow\n");
  EXPECT_EQ(check_integrity_trailer("").status, TrailerStatus::kMissing);
}

TEST(IntegrityTrailer, DetectsBodyCorruptionTruncationAndTrailerDamage) {
  const std::string document = with_integrity_trailer("banner\n0,1,2\n");

  // Flip one body byte.
  std::string flipped = document;
  flipped[8] = flipped[8] == '1' ? '2' : '1';
  EXPECT_EQ(check_integrity_trailer(flipped).status, TrailerStatus::kCorrupt);

  // Drop a body line but keep the trailer.
  std::string truncated = document;
  truncated.erase(0, 7);
  EXPECT_EQ(check_integrity_trailer(truncated).status,
            TrailerStatus::kCorrupt);

  // Corrupt a trailer hex digit.
  std::string bad_trailer = document;
  const std::size_t digit = bad_trailer.size() - 2;
  bad_trailer[digit] = bad_trailer[digit] == '0' ? '1' : '0';
  EXPECT_EQ(check_integrity_trailer(bad_trailer).status,
            TrailerStatus::kCorrupt);

  // Malform the trailer (wrong digit count).
  std::string short_hex = document;
  short_hex.erase(short_hex.size() - 2, 1);
  EXPECT_EQ(check_integrity_trailer(short_hex).status,
            TrailerStatus::kCorrupt);
}

TEST(IntegrityTrailer, TruncationEatingTheTrailerReadsAsMissing) {
  // A torn write that loses the whole trailer line leaves a document
  // indistinguishable from a legacy trailer-less one — readers must
  // then fall back on structural checks (banner, row count).
  const std::string document = with_integrity_trailer("banner\n0,1,2\n");
  const std::string torn = document.substr(0, document.find("@railcorr-crc"));
  EXPECT_EQ(check_integrity_trailer(torn).status, TrailerStatus::kMissing);
}

TEST(IntegrityTrailer, ATrailerJoinedOntoTheLastLineIsCorrupt) {
  // The body's final newline flipped: the trailer is no longer a line
  // of its own. Read as missing, the last row would carry the hash as
  // data and a structural check could still pass it.
  const std::string body = "banner\n0,1,2\n";
  for (const char flip : {',', 'x', '\r'}) {
    std::string joined = with_integrity_trailer(body);
    joined[body.size() - 1] = flip;
    const auto split = split_integrity_trailer(joined);
    EXPECT_TRUE(split.present) << flip;
    EXPECT_FALSE(split.stated.has_value()) << flip;
    EXPECT_EQ(check_integrity_trailer(joined).status, TrailerStatus::kCorrupt)
        << flip;
  }
}

TEST(AppendLog, AppendsSyncedLinesAcrossReopens) {
  TempDir dir;
  const std::string path = (dir.path / "log.txt").string();
  {
    AppendLog log;
    std::string error;
    ASSERT_TRUE(log.open(path, &error)) << error;
    ASSERT_TRUE(log.is_open());
    EXPECT_TRUE(log.append_line("one"));
    EXPECT_TRUE(log.append_line("two"));
  }
  {
    AppendLog log;
    ASSERT_TRUE(log.open(path));
    EXPECT_TRUE(log.append_line("three"));
    log.close();
    EXPECT_FALSE(log.is_open());
  }
  const auto back = read_file_fully(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, "one\ntwo\nthree\n");
}

TEST(AppendLog, OpenReportsUnwritablePaths) {
  AppendLog log;
  std::string error;
  EXPECT_FALSE(log.open("/nonexistent-dir/log.txt", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(log.is_open());
  EXPECT_FALSE(log.append_line("dropped"));
}

}  // namespace
}  // namespace railcorr::util
