#include <bit>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/checksum.h"
#include "common/flags.h"
#include "common/random.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/string_util.h"
#include "common/units.h"
#include "gtest/gtest.h"

namespace swim {
namespace {

// --- Status / StatusOr ---------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = InvalidArgumentError("bad input");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad input");
  EXPECT_EQ(status.ToString(), "INVALID_ARGUMENT: bad input");
}

TEST(StatusTest, FactoriesProduceDistinctCodes) {
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(AlreadyExistsError("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(OutOfRangeError("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
  EXPECT_EQ(UnimplementedError("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(IoError("x").code(), StatusCode::kIoError);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(InvalidArgumentError("a"), InvalidArgumentError("a"));
  EXPECT_FALSE(InvalidArgumentError("a") == InvalidArgumentError("b"));
  EXPECT_FALSE(InvalidArgumentError("a") == NotFoundError("a"));
}

StatusOr<int> ParsePositive(int value) {
  if (value <= 0) return InvalidArgumentError("not positive");
  return value;
}

Status UsesReturnIfError(int value) {
  SWIM_RETURN_IF_ERROR(ParsePositive(value).status());
  return Status::Ok();
}

StatusOr<int> UsesAssignOrReturn(int value) {
  SWIM_ASSIGN_OR_RETURN(int parsed, ParsePositive(value));
  return parsed * 2;
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result = ParsePositive(7);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 7);
  EXPECT_EQ(*result, 7);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result = ParsePositive(-1);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.value_or(42), 42);
}

TEST(StatusOrTest, MacrosPropagate) {
  EXPECT_TRUE(UsesReturnIfError(3).ok());
  EXPECT_FALSE(UsesReturnIfError(0).ok());
  EXPECT_EQ(UsesAssignOrReturn(5).value(), 10);
  EXPECT_FALSE(UsesAssignOrReturn(-5).ok());
}

TEST(StatusOrDeathTest, ValueOnErrorAborts) {
  StatusOr<int> result = ParsePositive(-1);
  EXPECT_DEATH({ (void)result.value(); }, "errored StatusOr");
}

// --- Pcg32 ---------------------------------------------------------------

TEST(Pcg32Test, DeterministicForSameSeed) {
  Pcg32 a(123, 5);
  Pcg32 b(123, 5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Pcg32Test, DifferentSeedsDiffer) {
  Pcg32 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Pcg32Test, DifferentStreamsDiffer) {
  Pcg32 a(1, 1), b(1, 2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Pcg32Test, NextDoubleInUnitInterval) {
  Pcg32 rng(42);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Pcg32Test, NextBoundedCoversRangeUniformly) {
  Pcg32 rng(7);
  std::vector<int> counts(10, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBounded(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / 10, kDraws / 10 * 0.15);
  }
}

TEST(Pcg32Test, NextIntInclusiveBounds) {
  Pcg32 rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Pcg32Test, GaussianMoments) {
  Pcg32 rng(11);
  double sum = 0, sum_sq = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    double z = rng.NextGaussian();
    sum += z;
    sum_sq += z * z;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Pcg32Test, ExponentialMean) {
  Pcg32 rng(13);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Pcg32Test, LognormalMedian) {
  Pcg32 rng(15);
  std::vector<double> values;
  for (int i = 0; i < 50001; ++i) values.push_back(rng.NextLognormal(1.0, 0.7));
  std::sort(values.begin(), values.end());
  EXPECT_NEAR(values[25000], std::exp(1.0), 0.1);
}

TEST(Pcg32Test, ParetoRespectsMinimum) {
  Pcg32 rng(17);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.NextPareto(3.0, 1.5), 3.0);
  }
}

TEST(Pcg32Test, BernoulliProbability) {
  Pcg32 rng(19);
  int heads = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) heads += rng.NextBernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.01);
}

TEST(Pcg32Test, DiscreteRespectsWeights) {
  Pcg32 rng(21);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextDiscrete(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(Pcg32Test, ForkProducesIndependentStream) {
  Pcg32 parent(33);
  Pcg32 child = parent.Fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent() == child()) ++same;
  }
  EXPECT_LT(same, 4);
}

// Golden sequences: every synthesized trace is a function of these
// streams, so a change to any draw changes every pinned synthesis digest.
// Each case pins the first values and an XXH64 over the bit patterns of
// the first 64.
template <typename Draw>
uint64_t DigestOf64(Pcg32 rng, Draw draw) {
  std::vector<uint64_t> bits;
  for (int i = 0; i < 64; ++i) bits.push_back(draw(rng));
  return Checksum64(bits.data(), bits.size() * sizeof(uint64_t));
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

TEST(Pcg32Test, GoldenSequences) {
  const Pcg32 seeded(20120827, 7);
  Pcg32 rng = seeded;
  EXPECT_EQ(rng(), 768698109u);
  EXPECT_EQ(rng(), 4174136419u);
  EXPECT_EQ(DigestOf64(seeded, [](Pcg32& r) { return uint64_t{r()}; }),
            0xb964a2aa0948a566u);
  rng = seeded;
  EXPECT_EQ(rng.NextDouble(), 0x1.6e8b37efc662p-3);
  EXPECT_EQ(rng.NextDouble(), 0x1.0811c181e7a0cp-2);
  EXPECT_EQ(
      DigestOf64(seeded, [](Pcg32& r) { return Bits(r.NextDouble()); }),
      0xd9026290b02fd6eeu);
  rng = seeded;
  EXPECT_EQ(rng.NextGaussian(), -0x1.780c6bada6457p-4);
  EXPECT_EQ(rng.NextGaussian(), 0x1.6bf7942de3473p+0);
  EXPECT_EQ(
      DigestOf64(seeded, [](Pcg32& r) { return Bits(r.NextGaussian()); }),
      0x409abd4b6b80fa9fu);
  rng = seeded;
  EXPECT_EQ(rng.NextBounded(1000), 683u);
  EXPECT_EQ(rng.NextBounded(1000), 811u);
  EXPECT_EQ(DigestOf64(seeded, [](Pcg32& r) { return r.NextBounded(1000); }),
            0x5cc956f02a4f1aa3u);
}

// NextGaussian is the transform of its draw and nothing more: a caller may
// make the draws serially and transform them elsewhere.
TEST(Pcg32Test, GaussianIsTheTransformOfItsDraw) {
  Pcg32 whole(20120827, 7);
  Pcg32 split = whole;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(whole.NextGaussian(),
              Pcg32::GaussianFromDraw(split.NextGaussianDraw()));
    EXPECT_EQ(whole(), split());  // the states stayed in step
  }
}

// --- Units ---------------------------------------------------------------

TEST(UnitsTest, FormatBytesPicksUnit) {
  EXPECT_EQ(FormatBytes(0), "0 B");
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(1.5 * kKB), "1.50 KB");
  EXPECT_EQ(FormatBytes(80 * kTB), "80 TB");
  EXPECT_EQ(FormatBytes(1.6 * kEB), "1.60 EB");
}

TEST(UnitsTest, FormatBytesNegative) {
  EXPECT_EQ(FormatBytes(-2 * kMB), "-2 MB");
}

TEST(UnitsTest, SignedZeroFormatsAsZero) {
  // -0.0 passes ValidateJobRecord (-0.0 < 0.0 is false), so a trace may
  // carry it; it must print like +0.0.
  EXPECT_EQ(FormatBytes(-0.0), "0 B");
  EXPECT_EQ(FormatDuration(-0.0), "0 sec");
  EXPECT_EQ(FormatBytes(0.0), "0 B");
  EXPECT_EQ(FormatDuration(0.0), "0 sec");
}

TEST(UnitsTest, FormatDurationPicksUnit) {
  EXPECT_EQ(FormatDuration(32), "32 sec");
  EXPECT_EQ(FormatDuration(4 * kMinute), "4 min");
  EXPECT_EQ(FormatDuration(2.5 * kHour), "2.50 hrs");
  EXPECT_EQ(FormatDuration(3 * kDay), "3 days");
}

TEST(UnitsTest, FormatCountThousandsSeparators) {
  EXPECT_EQ(FormatCount(0), "0");
  EXPECT_EQ(FormatCount(999), "999");
  EXPECT_EQ(FormatCount(1000), "1,000");
  EXPECT_EQ(FormatCount(1129193), "1,129,193");
}

// --- String utilities ----------------------------------------------------

TEST(StringUtilTest, SplitBasic) {
  std::vector<std::string> parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringUtilTest, SplitEmptyString) {
  std::vector<std::string> parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace("\t \n"), "");
  EXPECT_EQ(StripWhitespace("x"), "x");
}

TEST(StringUtilTest, ToLowerAndAffixes) {
  EXPECT_EQ(ToLower("InSeRt"), "insert");
  EXPECT_TRUE(StartsWith("oozie:launcher", "oozie"));
  EXPECT_FALSE(StartsWith("oozie", "oozie:launcher"));
  EXPECT_TRUE(EndsWith("report.pig", ".pig"));
}

TEST(StringUtilTest, FirstWordOfJobName) {
  // The paper's tokenization: first alphabetic word, lowercased, ignoring
  // capitalization, numbers, and symbols.
  EXPECT_EQ(FirstWordOfJobName("INSERT OVERWRITE TABLE x"), "insert");
  EXPECT_EQ(FirstWordOfJobName("PigLatin:report.pig"), "piglatin");
  EXPECT_EQ(FirstWordOfJobName("ad_hoc_417"), "ad");
  EXPECT_EQ(FirstWordOfJobName("20110401_etl_run"), "etl");
  EXPECT_EQ(FirstWordOfJobName("12345"), "");
  EXPECT_EQ(FirstWordOfJobName(""), "");
}

TEST(StringUtilTest, ParseDouble) {
  double value = 0;
  EXPECT_TRUE(ParseDouble("3.5", &value));
  EXPECT_DOUBLE_EQ(value, 3.5);
  EXPECT_TRUE(ParseDouble(" -2e3 ", &value));
  EXPECT_DOUBLE_EQ(value, -2000.0);
  EXPECT_FALSE(ParseDouble("abc", &value));
  EXPECT_FALSE(ParseDouble("1.5x", &value));
  EXPECT_FALSE(ParseDouble("", &value));
}

TEST(StringUtilTest, ParseInt64) {
  int64_t value = 0;
  EXPECT_TRUE(ParseInt64("42", &value));
  EXPECT_EQ(value, 42);
  EXPECT_TRUE(ParseInt64("-7", &value));
  EXPECT_EQ(value, -7);
  EXPECT_FALSE(ParseInt64("4.2", &value));
  EXPECT_FALSE(ParseInt64("", &value));
}

// The strtod/strtoll parsers ParseDouble/ParseInt64 had before their
// from_chars fast path: the oracle for the differential tests below.
bool OracleParseDouble(std::string_view text, double* value) {
  std::string buffer(StripWhitespace(text));
  if (buffer.empty()) return false;
  errno = 0;
  char* end = nullptr;
  double parsed = std::strtod(buffer.c_str(), &end);
  if (end != buffer.c_str() + buffer.size()) return false;
  if (errno != 0 && (errno != ERANGE || !std::isfinite(parsed))) return false;
  *value = parsed;
  return true;
}

bool OracleParseInt64(std::string_view text, int64_t* value) {
  std::string buffer(StripWhitespace(text));
  if (buffer.empty()) return false;
  errno = 0;
  char* end = nullptr;
  long long parsed = std::strtoll(buffer.c_str(), &end, 10);
  if (errno != 0 || end != buffer.c_str() + buffer.size()) return false;
  *value = parsed;
  return true;
}

/// Both parsers must accept exactly what the oracle accepts, with the same
/// bits. Returns a description of the first disagreement, or "".
std::string CompareWithOracle(const std::string& text) {
  double want_d = 0.0, got_d = 0.0;
  const bool want_d_ok = OracleParseDouble(text, &want_d);
  const bool got_d_ok = ParseDouble(text, &got_d);
  if (want_d_ok != got_d_ok) return "ParseDouble acceptance: '" + text + "'";
  if (want_d_ok && std::memcmp(&want_d, &got_d, sizeof(double)) != 0) {
    return "ParseDouble bits: '" + text + "'";
  }
  int64_t want_i = 0, got_i = 0;
  const bool want_i_ok = OracleParseInt64(text, &want_i);
  const bool got_i_ok = ParseInt64(text, &got_i);
  if (want_i_ok != got_i_ok) return "ParseInt64 acceptance: '" + text + "'";
  if (want_i_ok && want_i != got_i) return "ParseInt64 value: '" + text + "'";
  return "";
}

TEST(StringUtilTest, NumberParsersMatchStrtodOnEdgeCases) {
  const char* const corpus[] = {
      // signs and whitespace
      "+5", "-5", "-0", "+0", "-0.0", " 7 ", "\t3\t", "\n8\r", " ", "",
      "-", "+", "--5", "+-5", "- 5", "5 5",
      // hex and partial forms
      "0x1p3", "0X1P-2", "0x10", "0x", "-0x1p3", ".5", "5.", "-.5", ".",
      "1e", "1e+", "1e-", "1e5x", "e5", "1.e5", "1.5E+3", "00012", "1,5",
      "1_000", "0e0", "1e0005",
      // special values
      "inf", "-inf", "+inf", "INF", "infinity", "Infinity", "nan", "-nan",
      "NaN", "nan(123)", "nanx", "infx",
      // range edges
      "5e-324", "4.9406564584124654e-324", "2.4703282292062327e-324",
      "2.4703282292062328e-324", "1e-324", "1e-400", "1e400", "-1e400",
      "1.7976931348623157e308", "1.7976931348623158e308",
      "1.7976931348623159e308", "2.2250738585072011e-308",
      "2.2250738585072014e-308", "9007199254740993", "0.1",
      "0.1000000000000000055511151231257827021181583404541015625",
      "123456789012345678901234567890", "1e99999999999999999999",
      "1e-99999999999999999999", "0e99999999999999999999",
      "-9223372036854775808", "9223372036854775807",
      "-9223372036854775809", "9223372036854775808",
      "18446744073709551616", "-18446744073709551616",
  };
  for (const char* text : corpus) {
    EXPECT_EQ(CompareWithOracle(text), "");
  }
  // The fast path itself, on the forms the CSV writer emits.
  double value = 0.0;
  ASSERT_TRUE(ParseDouble("5e-324", &value));
  EXPECT_EQ(value, std::numeric_limits<double>::denorm_min());
  ASSERT_TRUE(ParseDouble("-0", &value));
  EXPECT_TRUE(std::signbit(value));
  ASSERT_TRUE(ParseDouble("1e-400", &value));  // underflows to zero
  EXPECT_EQ(value, 0.0);
  EXPECT_FALSE(ParseDouble("1e400", &value));
  int64_t integer = 0;
  ASSERT_TRUE(ParseInt64("+5", &integer));
  EXPECT_EQ(integer, 5);
  EXPECT_FALSE(ParseInt64("9223372036854775808", &integer));
}

TEST(StringUtilTest, NumberParsersMatchStrtodOnRandomStrings) {
  constexpr char kAlphabet[] = "0123456789+-.eExXabcdefABCDEF \t";
  constexpr size_t kLetters = sizeof(kAlphabet) - 1;
  Pcg32 rng(20120801, 7);
  size_t mismatches = 0;
  std::string first_mismatch;
  auto check = [&](const std::string& text) {
    const std::string diff = CompareWithOracle(text);
    if (!diff.empty() && mismatches++ == 0) first_mismatch = diff;
  };
  std::string text;
  for (int i = 0; i < 200000; ++i) {
    text.clear();
    const uint64_t length = 1 + rng.NextBounded(12);
    for (uint64_t c = 0; c < length; ++c) {
      text.push_back(kAlphabet[rng.NextBounded(kLetters)]);
    }
    check(text);
  }
  // Number-shaped strings, which the alphabet above rarely forms: an
  // optional sign, digits, an optional fraction and exponent.
  constexpr const char* kSigns[] = {"", "", "-", "+"};
  for (int i = 0; i < 100000; ++i) {
    text = kSigns[rng.NextBounded(4)];
    const uint64_t digits = rng.NextBounded(22);
    for (uint64_t d = 0; d < digits; ++d) {
      text.push_back(static_cast<char>('0' + rng.NextBounded(10)));
    }
    if (rng.NextBounded(2) == 0) {
      text.push_back('.');
      const uint64_t fraction = rng.NextBounded(20);
      for (uint64_t d = 0; d < fraction; ++d) {
        text.push_back(static_cast<char>('0' + rng.NextBounded(10)));
      }
    }
    if (rng.NextBounded(3) == 0) {
      text.push_back(rng.NextBounded(2) == 0 ? 'e' : 'E');
      text += kSigns[rng.NextBounded(4)];
      text += std::to_string(rng.NextBounded(700));
    }
    check(text);
  }
  // Every bit pattern class, written the way the CSV writer and printf
  // write doubles.
  char buffer[64];
  for (int i = 0; i < 50000; ++i) {
    const double value =
        std::bit_cast<double>((uint64_t{rng()} << 32) | rng());
    check(std::string(buffer, std::to_chars(buffer, buffer + sizeof(buffer),
                                            value).ptr));
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    check(buffer);
  }
  EXPECT_EQ(mismatches, 0u) << first_mismatch;
}

// --- Command-line flags --------------------------------------------------

// Parses `args` (after a program name) with a tool-shaped flag set and
// returns the error message, "" on success.
std::string ParseFlags(const std::vector<std::string>& args) {
  std::string trace;
  size_t jobs = 0;
  uint64_t seed = 0;
  int nodes = 100;
  double interval = 1.0;
  bool stream = false;
  std::string out;
  std::vector<int> list;
  flags::FlagSet cli;
  cli.Add("<trace>", &trace)
      .Add("[jobs]", &jobs, 1)
      .Add("[seed]", &seed)
      .Add("--nodes", &nodes, 1)
      .Add("--interval", &interval)
      .Add("--stream", &stream)
      .Add("--out", &out)
      .Add("--list", flags::CommaList([&](std::string_view e) {
             return flags::ParseInt(e, &list.emplace_back());
           }));
  std::vector<const char*> argv = {"tool"};
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  const Status parsed = cli.Parse(static_cast<int>(argv.size()), argv.data());
  return parsed.ok() ? "" : parsed.message();
}

TEST(FlagsTest, GrammarTable) {
  const struct {
    std::vector<std::string> args;
    std::string error;
  } kCases[] = {
      {{"t"}, ""},
      {{"t", "--nodes", "5", "--out", "o", "--stream"}, ""},
      {{"--nodes=5", "--out=o", "t", "7", "9"}, ""},
      {{"t", "--out", "--stream"}, ""},  // a value may start with "--"
      {{"t", "--out="}, ""},
      {{"t", "--nodes"}, "--nodes needs a value"},
      {{"t", "--bogus", "1"}, "--bogus is not a flag here"},
      {{"t", "--bogus=1"}, "--bogus is not a flag here"},
      {{"t", "--stream=x"}, "--stream takes no value, got 'x'"},
      {{"t", "--nodes", "12abc"},
       "--nodes needs an integer in [1, 2147483647], got '12abc'"},
      {{"t", "--nodes=0"}, "--nodes needs an integer in [1, 2147483647], got '0'"},
      {{"t", "--interval", "nan"}, "--interval needs a finite number, got 'nan'"},
      {{"t", "--interval", "-inf"},
       "--interval needs a finite number, got '-inf'"},
      {{"t", "--interval", "1e999"},
       "--interval needs a finite number, got '1e999'"},
      {{"t", "--list", "1,2"}, ""},
      {{"t", "--list", "1,,2"}, "--list has an empty list element in '1,,2'"},
      {{"t", "--list", "1,"}, "--list has an empty list element in '1,'"},
      {{"t", "--list", ""}, "--list has an empty list element in ''"},
      {{"t", "--list", "1,x"},
       "--list needs an integer in [-2147483648, 2147483647], got 'x'"},
      {{}, "<trace> is missing"},
      {{"--stream"}, "<trace> is missing"},
      {{"t", "-5"},
       "[jobs] needs an integer in [1, 18446744073709551615], got '-5'"},
      {{"t", "1", "18446744073709551616"},
       "[seed] needs an integer in [0, 18446744073709551615], got "
       "'18446744073709551616'"},
      {{"t", "1", "2", "extra"}, "unexpected argument 'extra'"},
  };
  for (const auto& c : kCases) {
    std::string line;
    for (const std::string& arg : c.args) line += " " + arg;
    EXPECT_EQ(ParseFlags(c.args), c.error) << "args:" << line;
  }
}

TEST(FlagsTest, BothValueFormsSetTheSameValues) {
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{
           {"--nodes", "7", "--interval", "0.5", "--stream", "t", "3"},
           {"--nodes=7", "--interval=0.5", "--stream", "t", "3"}}) {
    std::string trace;
    size_t jobs = 0;
    int nodes = 0;
    double interval = 0;
    bool stream = false;
    flags::FlagSet cli;
    cli.Add("<trace>", &trace)
        .Add("[jobs]", &jobs, 1)
        .Add("--nodes", &nodes, 1)
        .Add("--interval", &interval)
        .Add("--stream", &stream);
    std::vector<const char*> argv = {"tool"};
    for (const std::string& arg : args) argv.push_back(arg.c_str());
    ASSERT_TRUE(cli.Parse(static_cast<int>(argv.size()), argv.data()).ok());
    EXPECT_EQ(trace, "t");
    EXPECT_EQ(jobs, 3u);
    EXPECT_EQ(nodes, 7);
    EXPECT_EQ(interval, 0.5);
    EXPECT_TRUE(stream);
  }
}

template <typename Int>
bool IntAccepts(std::string_view text, Int expected) {
  Int value{};
  return flags::ParseInt(text, &value).ok() && value == expected;
}

template <typename Int>
bool IntRejects(std::string_view text) {
  Int value = 7;
  return !flags::ParseInt(text, &value).ok() && value == 7;
}

TEST(FlagsTest, IntegerBoundsAtEachTypesEdges) {
  EXPECT_TRUE(IntAccepts<int>("2147483647", INT32_MAX));
  EXPECT_TRUE(IntAccepts<int>("-2147483648", INT32_MIN));
  EXPECT_TRUE(IntRejects<int>("2147483648"));
  EXPECT_TRUE(IntRejects<int>("-2147483649"));
  EXPECT_TRUE(IntAccepts<int64_t>("9223372036854775807", INT64_MAX));
  EXPECT_TRUE(IntAccepts<int64_t>("-9223372036854775808", INT64_MIN));
  EXPECT_TRUE(IntRejects<int64_t>("9223372036854775808"));
  EXPECT_TRUE(IntRejects<int64_t>("-9223372036854775809"));
  EXPECT_TRUE(IntAccepts<uint32_t>("4294967295", UINT32_MAX));
  EXPECT_TRUE(IntRejects<uint32_t>("4294967296"));
  EXPECT_TRUE(IntAccepts<uint64_t>("0", 0));
  EXPECT_TRUE(IntAccepts<uint64_t>("18446744073709551615", UINT64_MAX));
  EXPECT_TRUE(IntRejects<uint64_t>("18446744073709551616"));
  EXPECT_TRUE(IntRejects<uint64_t>("-1"));
  EXPECT_TRUE(IntRejects<uint64_t>("-0"));
  // Whole-string base 10 only.
  for (const char* text : {"", "+1", " 1", "1 ", "1e3", "0x10", "1.0"}) {
    EXPECT_TRUE(IntRejects<int64_t>(text)) << "'" << text << "'";
  }
  int64_t value = 0;
  EXPECT_FALSE(flags::ParseInt(std::string_view("4"), &value, 5).ok());
  EXPECT_TRUE(flags::ParseInt(std::string_view("5"), &value, 5).ok());
}

TEST(FlagsTest, FiniteDoublesOnly) {
  double value = 0;
  for (const char* text : {"nan", "-nan", "inf", "-inf", "infinity", "1e999",
                           "-1e999", "", "1,5", "0.1x"}) {
    EXPECT_FALSE(flags::ParseFinite(text, &value).ok()) << text;
  }
  EXPECT_TRUE(flags::ParseFinite("1.5e3", &value).ok());
  EXPECT_EQ(value, 1500.0);
  EXPECT_TRUE(flags::ParseFinite("-0.25", &value).ok());
  EXPECT_EQ(value, -0.25);
  EXPECT_TRUE(flags::ParseFinite("5e-324", &value).ok());  // subnormal
}

}  // namespace
}  // namespace swim
