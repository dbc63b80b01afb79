// Tests for the common substrate: strong ids, Status/StatusOr, CRC-32C,
// deterministic RNG, simulated clock, formatting helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>
#include <vector>

#include "common/crc32c.hpp"
#include "common/hexdump.hpp"
#include "common/rng.hpp"
#include "common/sim_clock.hpp"
#include "common/status.hpp"
#include "common/types.hpp"

namespace rhsd {
namespace {

TEST(StrongId, DistinctTypesDoNotCompare) {
  const Lba lba(7);
  const Pba pba(7);
  EXPECT_EQ(lba.value(), pba.value());
  // Lba and Pba are different types; this is a compile-time property —
  // here we just document the accessor behaviour.
  EXPECT_EQ(lba, Lba(7));
  EXPECT_NE(lba, Lba(8));
}

TEST(StrongId, Arithmetic) {
  Lba a(10);
  EXPECT_EQ((a + 5).value(), 15u);
  EXPECT_EQ((a - 3).value(), 7u);
  EXPECT_EQ(Lba(20) - Lba(5), 15u);
  ++a;
  EXPECT_EQ(a.value(), 11u);
}

TEST(StrongId, Ordering) {
  EXPECT_LT(Lba(1), Lba(2));
  EXPECT_GE(Lba(5), Lba(5));
}

TEST(StrongId, Hashable) {
  std::set<Lba> lbas{Lba(3), Lba(1), Lba(3)};
  EXPECT_EQ(lbas.size(), 2u);
  EXPECT_EQ(std::hash<Lba>{}(Lba(42)), std::hash<Lba>{}(Lba(42)));
}

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  const Status s = NotFound("no such thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "no such thing");
  EXPECT_EQ(s.to_string(), "NOT_FOUND: no such thing");
}

TEST(Status, AllConstructorsProduceTheirCode) {
  EXPECT_EQ(InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(PermissionDenied("x").code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(Corruption("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Unimplemented("x").code(), StatusCode::kUnimplemented);
}

// An OK status is two words (code + null message pointer); the message
// of an error lives out of line.
static_assert(sizeof(Status) <= 2 * sizeof(void*));

TEST(Status, OkHasEmptyMessage) {
  EXPECT_TRUE(Status::Ok().message().empty());
  EXPECT_EQ(Status::Ok().to_string(), "OK");
  const Status copy = Status::Ok();
  EXPECT_TRUE(copy.ok());
  EXPECT_TRUE(copy.message().empty());
}

TEST(Status, ErrorWithoutMessage) {
  const Status s = Corruption("");
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_TRUE(s.message().empty());
  EXPECT_EQ(s.to_string(), "CORRUPTION");
}

TEST(Status, CopyConstructKeepsCodeAndMessage) {
  const Status original = PermissionDenied("not yours");
  const Status copy(original);
  EXPECT_EQ(copy.code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(copy.message(), "not yours");
  // Deep copy: the original is untouched and owns its own message.
  EXPECT_EQ(original.message(), "not yours");
  EXPECT_NE(&copy.message(), &original.message());
}

TEST(Status, CopyAssignKeepsCodeAndMessage) {
  const Status original = OutOfRange("lba 9 past end");
  Status target = NotFound("overwritten");
  target = original;
  EXPECT_EQ(target.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(target.message(), "lba 9 past end");
  EXPECT_EQ(original.message(), "lba 9 past end");
  // Assigning OK over an error clears the message.
  target = Status::Ok();
  EXPECT_TRUE(target.ok());
  EXPECT_TRUE(target.message().empty());
}

TEST(Status, SelfAssignKeepsCodeAndMessage) {
  Status s = Aborted("host abort");
  const Status& alias = s;
  s = alias;
  EXPECT_EQ(s.code(), StatusCode::kAborted);
  EXPECT_EQ(s.message(), "host abort");
}

TEST(Status, MoveConstructKeepsCodeAndMessage) {
  Status source = Unavailable("transient");
  const Status moved(std::move(source));
  EXPECT_EQ(moved.code(), StatusCode::kUnavailable);
  EXPECT_EQ(moved.message(), "transient");
}

TEST(Status, MoveAssignKeepsCodeAndMessage) {
  Status source = DeadlineExceeded("retries exhausted");
  Status target = InvalidArgument("old");
  target = std::move(source);
  EXPECT_EQ(target.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(target.message(), "retries exhausted");
}

TEST(Status, MovedFromCanBeReassigned) {
  Status source = ResourceExhausted("full");
  const Status sink(std::move(source));
  source = Corruption("bad crc");  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(source.code(), StatusCode::kCorruption);
  EXPECT_EQ(source.message(), "bad crc");
  source = Status::Ok();
  EXPECT_TRUE(source.ok());
  EXPECT_EQ(sink.message(), "full");
}

TEST(StatusOr, CopyOfErrorKeepsStatus) {
  const StatusOr<int> error = NotFound("gone");
  const StatusOr<int> copy(error);
  ASSERT_FALSE(copy.ok());
  EXPECT_EQ(copy.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(copy.status().message(), "gone");
  StatusOr<int> assigned = 7;
  assigned = error;
  ASSERT_FALSE(assigned.ok());
  EXPECT_EQ(assigned.status().message(), "gone");
  EXPECT_EQ(error.status().message(), "gone");
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> v = NotFound("gone");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOr, ValueOnErrorThrowsCheckFailure) {
  StatusOr<int> v = NotFound("gone");
  EXPECT_THROW((void)v.value(), CheckFailure);
}

TEST(StatusOr, MoveOut) {
  StatusOr<std::string> v = std::string("payload");
  const std::string s = std::move(v).value();
  EXPECT_EQ(s, "payload");
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return InvalidArgument("odd");
  return x / 2;
}

Status UseMacros(int x, int* out) {
  RHSD_ASSIGN_OR_RETURN(const int h, Half(x));
  RHSD_RETURN_IF_ERROR(Status::Ok());
  *out = h;
  return Status::Ok();
}

TEST(StatusOr, Macros) {
  int out = 0;
  EXPECT_TRUE(UseMacros(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_EQ(UseMacros(7, &out).code(), StatusCode::kInvalidArgument);
}

TEST(Crc32c, KnownVectors) {
  // RFC 3720 test vector: 32 bytes of zeros.
  std::vector<std::uint8_t> zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros), 0x8A9136AAu);
  // 32 bytes of 0xFF.
  std::vector<std::uint8_t> ones(32, 0xFF);
  EXPECT_EQ(Crc32c(ones), 0x62A8AB43u);
  // Ascending 0..31.
  std::vector<std::uint8_t> asc(32);
  for (int i = 0; i < 32; ++i) asc[i] = static_cast<std::uint8_t>(i);
  EXPECT_EQ(Crc32c(asc), 0x46DD794Eu);
}

TEST(Crc32c, EmptyIsZero) {
  EXPECT_EQ(Crc32c({}), 0u);
}

TEST(Crc32c, SeedChaining) {
  std::vector<std::uint8_t> data{1, 2, 3, 4, 5, 6, 7, 8};
  const std::uint32_t whole = Crc32c(data);
  const std::uint32_t part1 = Crc32c(std::span(data).subspan(0, 4));
  const std::uint32_t chained =
      Crc32c(std::span(data).subspan(4), part1);
  EXPECT_EQ(whole, chained);
}

TEST(Crc32c, SensitiveToSingleBitFlips) {
  // Every bit of a short buffer (single stream) and of a 4092-byte
  // extent-node prefix (the long-input path plus a tail: the 512-bit
  // fold where the CPU has it, else three SSE4.2 lanes).
  for (const std::size_t n : {std::size_t{64}, std::size_t{4092}}) {
    Rng rng(n);
    std::vector<std::uint8_t> data(n);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
    const std::uint32_t base = Crc32c(data);
    int missed = 0;
    for (std::size_t byte = 0; byte < n; ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        data[byte] ^= static_cast<std::uint8_t>(1u << bit);
        if (Crc32c(data) == base) ++missed;
        data[byte] ^= static_cast<std::uint8_t>(1u << bit);
      }
    }
    EXPECT_EQ(missed, 0) << "length " << n;
  }
}

// Bit-at-a-time CRC-32C register update, straight from the definition
// and independent of every production kernel (byte table, SSE4.2 lanes,
// 512-bit fold).  Works on the un-inverted register so prefixes chain.
std::uint32_t BitwiseStep(std::uint32_t reg, std::uint8_t byte) {
  reg ^= byte;
  for (int bit = 0; bit < 8; ++bit) {
    reg = (reg & 1u) ? (reg >> 1) ^ 0x82F63B78u : reg >> 1;
  }
  return reg;
}

using CrcFn = std::uint32_t (*)(std::span<const std::uint8_t>, std::uint32_t);

/// Checks `crc` (called like Crc32c) against the bitwise reference
/// on every length in `lengths`, at `offsets` into a random buffer, for
/// three random data and seed draws.
template <typename Fn>
void ExpectMatchesBitwiseReference(Fn crc,
                                   const std::vector<std::size_t>& lengths,
                                   const std::vector<std::size_t>& offsets) {
  const std::size_t max_len = *std::max_element(lengths.begin(),
                                                lengths.end());
  const std::size_t max_off = *std::max_element(offsets.begin(),
                                                offsets.end());
  for (std::uint64_t seed : {1, 2, 3}) {
    Rng rng(seed);
    std::vector<std::uint8_t> buf(max_len + max_off);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
    const auto crc_seed = static_cast<std::uint32_t>(rng.next());
    for (const std::size_t off : offsets) {
      // want[n] = reference CRC of the n bytes starting at `off`.
      std::vector<std::uint32_t> want(max_len + 1);
      std::uint32_t reg = ~crc_seed;
      want[0] = ~reg;
      for (std::size_t n = 1; n <= max_len; ++n) {
        reg = BitwiseStep(reg, buf[off + n - 1]);
        want[n] = ~reg;
      }
      for (const std::size_t n : lengths) {
        ASSERT_EQ(crc(std::span(buf).subspan(off, n), crc_seed), want[n])
            << "seed " << seed << " offset " << off << " length " << n;
      }
    }
  }
}

// The SSE4.2 path runs 3 x 1360-byte lanes per 4080-byte stretch and
// finishes with a single stream; these lengths cover no stretch, one
// stretch plus every tail (4092 is the extent-node prefix, 4096 a whole
// block), and the two- and three-stretch boundaries.
std::vector<std::size_t> LaneLengths() {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 4200; ++n) lengths.push_back(n);
  for (std::size_t n = 8150; n <= 8170; ++n) lengths.push_back(n);
  for (std::size_t n = 12230; n <= 12250; ++n) lengths.push_back(n);
  return lengths;
}

TEST(Crc32c, MatchesBitwiseReferenceAcrossLengthsAndOffsets) {
  ExpectMatchesBitwiseReference(
      [](std::span<const std::uint8_t> d, std::uint32_t s) {
        return Crc32c(d, s);
      },
      LaneLengths(), {0, 1, 2, 3, 4, 5, 6, 7});
}

// Each kernel Crc32c can dispatch to, called directly, so a kernel the
// dispatcher does not pick on this host is still checked where the CPU
// has it.
struct CrcKernel {
  const char* name;
  bool (*supported)();
  CrcFn kernel;  // un-inverted register in and out
};

void PrintTo(const CrcKernel& k, std::ostream* os) { *os << k.name; }

class Crc32cKernel : public ::testing::TestWithParam<CrcKernel> {};

// Lengths 0..4200 and the three-lane boundaries, plus every 256-byte
// multiple up to 12 KiB (the fold's four-accumulator step) at -17..+17
// (its 64-byte and 16-byte steps and the single-stream tail around
// them); offsets up to 63 misalign every 64-byte load.
TEST_P(Crc32cKernel, MatchesBitwiseReference) {
  const CrcKernel& k = GetParam();
  if (!k.supported()) GTEST_SKIP() << k.name << " not supported by this CPU";
  std::vector<std::size_t> lengths = LaneLengths();
  for (std::size_t base = 256; base <= 12288; base += 256) {
    for (std::size_t d = 0; d <= 17; ++d) {
      lengths.push_back(base - d);
      lengths.push_back(base + d);
    }
  }
  ExpectMatchesBitwiseReference(
      [&k](std::span<const std::uint8_t> d, std::uint32_t s) {
        return ~k.kernel(d, ~s);
      },
      lengths, {0, 1, 3, 8, 17, 31, 63});
}

bool Always() { return true; }

INSTANTIATE_TEST_SUITE_P(
    Kernels, Crc32cKernel,
    ::testing::Values(
        CrcKernel{"Table", &Always, &detail::Crc32cTable}
#if defined(__x86_64__)
        ,
        CrcKernel{"Sse42", &detail::HaveSse42, &detail::Crc32cSse42},
        CrcKernel{"Fold512", &detail::HaveFold512, &detail::Crc32cFold512}
#endif
        ),
    [](const ::testing::TestParamInfo<CrcKernel>& info) {
      return std::string(info.param.name);
    });

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  // Different seed gives a different stream (overwhelmingly likely).
  Rng a2(123);
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) {
    any_diff |= (a2.next() != c.next());
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextInInclusiveRange) {
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t v = rng.next_in(10, 12);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 12u);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);  // law of large numbers
}

TEST(Rng, BoolProbability) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.next_bool(0.25);
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
  EXPECT_FALSE(rng.next_bool(0.0));
  EXPECT_TRUE(rng.next_bool(1.0));
}

TEST(Rng, BoolThresholdMatchesNextBoolDrawForDraw) {
  // The precomputed-threshold form must agree with next_bool on every
  // draw (and consume the stream identically), including probabilities
  // that are exact multiples of 2^-53 and ones that are not.
  for (const double p : {0.25, 1.0 / 3.0, 0.001, 0x1.0p-53, 0.9999,
                         5e-7, 0.5}) {
    Rng a(99);
    Rng b(99);
    const std::uint64_t thr = Rng::bool_threshold(p);
    for (int i = 0; i < 20000; ++i) {
      ASSERT_EQ(a.next_bool(p), b.next_bool_at(thr)) << "p=" << p;
    }
    EXPECT_EQ(a.next(), b.next());  // identical stream position
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(17);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.next_gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.1);
}

TEST(Rng, ForkIndependence) {
  Rng parent(21);
  Rng child = parent.fork();
  // The child stream differs from the parent's continued stream.
  bool differ = false;
  for (int i = 0; i < 50; ++i) differ |= (parent.next() != child.next());
  EXPECT_TRUE(differ);
}

TEST(Mix64, IsDeterministicAndSpreads) {
  EXPECT_EQ(Mix64(1), Mix64(1));
  EXPECT_NE(Mix64(1), Mix64(2));
  // Adjacent inputs should differ in many bits (avalanche sanity).
  const int pop = std::popcount(Mix64(100) ^ Mix64(101));
  EXPECT_GT(pop, 16);
}

TEST(SimClock, AdvancesMonotonically) {
  SimClock clock;
  EXPECT_EQ(clock.now_ns(), 0u);
  clock.advance_ns(1500);
  EXPECT_EQ(clock.now_ns(), 1500u);
  clock.advance_seconds(2.0);
  EXPECT_EQ(clock.now_ns(), 1500u + 2'000'000'000u);
  EXPECT_NEAR(clock.now_seconds(), 2.0000015, 1e-9);
}

TEST(Hexdump, FormatsAsciiGutter) {
  std::vector<std::uint8_t> data = {'H', 'i', 0x00, 0xFF};
  const std::string dump = Hexdump(data);
  EXPECT_NE(dump.find("48 69 00 ff"), std::string::npos);
  EXPECT_NE(dump.find("|Hi..|"), std::string::npos);
}

TEST(Hexdump, TruncatesAtMaxBytes) {
  std::vector<std::uint8_t> data(512, 0x41);
  const std::string dump = Hexdump(data, 32);
  EXPECT_NE(dump.find("more bytes"), std::string::npos);
}

TEST(HumanCount, Ranges) {
  EXPECT_EQ(HumanCount(42), "42");
  EXPECT_EQ(HumanCount(780e3), "780K");
  EXPECT_EQ(HumanCount(1.5e6), "1.5M");
  EXPECT_EQ(HumanCount(2.1e9), "2.1G");
}

TEST(Check, ThrowsWithContext) {
  try {
    RHSD_CHECK_MSG(1 == 2, "math broke: " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("math broke: 42"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace rhsd
