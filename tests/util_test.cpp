// Unit tests for deepphi::util — RNG statistics and determinism, option
// parsing, string helpers, table/CSV emission, aligned allocation, and the
// check macros.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "util/aligned.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/http_listener.hpp"
#include "util/json_reader.hpp"
#include "util/json_writer.hpp"
#include "util/logging.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "util/timer.hpp"

namespace deepphi::util {
namespace {

// --- Rng ---

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, DifferentStreamsDiffer) {
  Rng a(7, 0), b(7, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitIsStableRegardlessOfDraws) {
  Rng a(99);
  Rng split_before = a.split(5);
  for (int i = 0; i < 1000; ++i) a.next_u64();
  Rng split_after = a.split(5);
  for (int i = 0; i < 32; ++i)
    EXPECT_EQ(split_before.next_u64(), split_after.next_u64());
}

TEST(Rng, SplitStreamsAreDistinct) {
  Rng a(99);
  Rng s0 = a.split(0), s1 = a.split(1);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (s0.next_u64() == s1.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng r(42);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng r(42);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformFloatInRange) {
  Rng r(42);
  for (int i = 0; i < 10000; ++i) {
    const float u = r.uniform_float();
    EXPECT_GE(u, 0.0f);
    EXPECT_LT(u, 1.0f);
  }
}

TEST(Rng, UniformBounds) {
  Rng r(42);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-3.0, 7.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 7.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng r(7);
  const int n = 200000;
  double sum = 0, sum2 = 0;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, NormalWithParams) {
  Rng r(7);
  const int n = 100000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += r.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng r(11);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    if (r.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, UniformIndexCoversRange) {
  Rng r(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t k = r.uniform_index(7);
    EXPECT_LT(k, 7u);
    seen.insert(k);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(SplitMix64, Deterministic) {
  SplitMix64 a(5), b(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next(), b.next());
}

// --- Options ---

TEST(Options, ParsesKeyValue) {
  const char* argv[] = {"prog", "--alpha=3", "--name=xyz"};
  Options o = Options::parse(3, argv);
  EXPECT_EQ(o.get_int("alpha"), 3);
  EXPECT_EQ(o.get_string("name"), "xyz");
}

TEST(Options, BooleanFlag) {
  const char* argv[] = {"prog", "--verbose"};
  Options o = Options::parse(2, argv);
  EXPECT_TRUE(o.get_bool("verbose"));
}

TEST(Options, SpaceSeparatedValue) {
  const char* argv[] = {"prog", "--profile", "out.json", "--verbose",
                        "--telemetry", "run.jsonl"};
  Options o = Options::parse(6, argv);
  EXPECT_EQ(o.get_string("profile"), "out.json");
  EXPECT_EQ(o.get_string("telemetry"), "run.jsonl");
  EXPECT_TRUE(o.get_bool("verbose"));  // followed by a --flag: boolean
  EXPECT_TRUE(o.positional().empty());
}

TEST(Options, BareFlagBeforeFlagStaysBoolean) {
  const char* argv[] = {"prog", "--taskgraph", "--epochs=2"};
  Options o = Options::parse(3, argv);
  EXPECT_TRUE(o.get_bool("taskgraph"));
  EXPECT_EQ(o.get_int("epochs"), 2);
}

TEST(Options, DefaultsFromDeclare) {
  const char* argv[] = {"prog"};
  Options o = Options::parse(1, argv);
  o.declare("batch", "batch size", "128");
  EXPECT_EQ(o.get_int("batch"), 128);
  EXPECT_FALSE(o.has("batch"));
}

TEST(Options, ValidateRejectsUnknown) {
  const char* argv[] = {"prog", "--bogus=1"};
  Options o = Options::parse(2, argv);
  o.declare("known", "a flag");
  EXPECT_THROW(o.validate(), Error);
}

TEST(Options, ValidateAcceptsDeclared) {
  const char* argv[] = {"prog", "--known=1"};
  Options o = Options::parse(2, argv);
  o.declare("known", "a flag");
  EXPECT_NO_THROW(o.validate());
}

TEST(Options, PositionalCollected) {
  const char* argv[] = {"prog", "file1", "--k=v", "file2"};
  Options o = Options::parse(4, argv);
  ASSERT_EQ(o.positional().size(), 2u);
  EXPECT_EQ(o.positional()[0], "file1");
  EXPECT_EQ(o.positional()[1], "file2");
}

TEST(Options, MissingUndeclaredThrows) {
  const char* argv[] = {"prog"};
  Options o = Options::parse(1, argv);
  EXPECT_THROW(o.get_string("nope"), Error);
}

TEST(Options, ScientificIntegers) {
  const char* argv[] = {"prog", "--n=1e6"};
  Options o = Options::parse(2, argv);
  EXPECT_EQ(o.get_int("n"), 1000000);
}

TEST(Options, DuplicateFlagLastWins) {
  const char* argv[] = {"prog", "--k=1", "--k=2"};
  Options o = Options::parse(3, argv);
  EXPECT_EQ(o.get_int("k"), 2);
}

TEST(Options, HelpListsFlags) {
  Options o;
  o.declare("alpha", "the alpha", "1");
  const std::string h = o.help("prog");
  EXPECT_NE(h.find("--alpha"), std::string::npos);
  EXPECT_NE(h.find("the alpha"), std::string::npos);
}

// --- string_util ---

TEST(StringUtil, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringUtil, StartsWith) {
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-f", "--"));
}

TEST(StringUtil, ToLower) { EXPECT_EQ(to_lower("AbC"), "abc"); }

TEST(StringUtil, ParseInt) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("4096"), 4096);
  EXPECT_THROW(parse_int("4.5"), Error);
  EXPECT_THROW(parse_int("abc"), Error);
  EXPECT_THROW(parse_int("12x"), Error);
}

TEST(StringUtil, ParseDouble) {
  EXPECT_DOUBLE_EQ(parse_double("2.5"), 2.5);
  EXPECT_THROW(parse_double("zz"), Error);
}

TEST(StringUtil, ParseBool) {
  EXPECT_TRUE(parse_bool("true"));
  EXPECT_TRUE(parse_bool("ON"));
  EXPECT_FALSE(parse_bool("0"));
  EXPECT_THROW(parse_bool("maybe"), Error);
}

TEST(StringUtil, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512.00 B");
  EXPECT_EQ(format_bytes(2048), "2.00 KB");
}

TEST(StringUtil, FormatSi) {
  EXPECT_EQ(format_si(1500, "flop"), "1.50 Kflop");
  EXPECT_EQ(format_si(2.5e9, "F"), "2.50 GF");
}

// --- Table / CSV ---

TEST(Table, TextRendering) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string text = t.to_text();
  EXPECT_NE(text.find("| name"), std::string::npos);
  EXPECT_NE(text.find("longer"), std::string::npos);
}

TEST(Table, CsvRendering) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(Table, RejectsRaggedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, RejectsCommaInCsvCell) {
  Table t({"a"});
  t.add_row({"x,y"});
  EXPECT_THROW(t.to_csv(), Error);
}

TEST(Table, WriteCsvRoundTrip) {
  Table t({"k", "v"});
  t.add_row({"alpha", "3.5"});
  const std::string path = testing::TempDir() + "/deepphi_table.csv";
  t.write_csv(path);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "k,v");
  std::remove(path.c_str());
}

TEST(Table, CellFormatting) {
  EXPECT_EQ(Table::cell(static_cast<long long>(42)), "42");
  EXPECT_EQ(Table::cell(2.5), "2.5");
}

// --- aligned ---

TEST(Aligned, BufferIsAligned) {
  auto buf = make_aligned<float>(100);
  EXPECT_TRUE(is_aligned(buf.get()));
}

TEST(Aligned, ZeroSizeStillDistinct) {
  auto a = make_aligned<float>(0);
  auto b = make_aligned<float>(0);
  EXPECT_NE(a.get(), b.get());
}

TEST(Aligned, MappedSizesAreAlignedWritableAndMovable) {
  // At and past kMapBytes buffers get their own mapping; the deleter must
  // travel with the pointer through moves and resets.
  for (std::size_t bytes : {kMapBytes - 4, kMapBytes, 3 * kMapBytes + 4}) {
    const std::size_t n = bytes / sizeof(float);
    auto buf = make_aligned<float>(n);
    ASSERT_TRUE(is_aligned(buf.get()));
    buf[0] = 1.0f;
    buf[n - 1] = 2.0f;
    AlignedBuffer<float> moved = std::move(buf);
    EXPECT_EQ(moved[0], 1.0f);
    EXPECT_EQ(moved[n - 1], 2.0f);
    moved = make_aligned<float>(16);
    moved.reset();
  }
}

// --- error macros ---

TEST(Error, CheckThrowsWithLocation) {
  try {
    DEEPPHI_CHECK(1 == 2);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("util_test.cpp"), std::string::npos);
  }
}

TEST(Error, CheckMsgIncludesMessage) {
  try {
    DEEPPHI_CHECK_MSG(false, "ctx " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("ctx 42"), std::string::npos);
  }
}

TEST(Error, CheckPassesSilently) { EXPECT_NO_THROW(DEEPPHI_CHECK(2 + 2 == 4)); }

// --- logging / timer ---

TEST(Logging, LevelFilter) {
  const LogLevel prev = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Below-threshold logging must be a no-op (no crash, no output assert).
  DEEPPHI_INFO() << "should be suppressed";
  set_log_level(prev);
}

TEST(Timer, MeasuresElapsed) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.seconds(), 0.0);
  EXPECT_GE(t.milliseconds(), t.seconds() * 1e3 - 1e-9);
}

// ---------------------------------------------------------------- JsonReader

TEST(JsonReader, ParsesScalarsAndContainers) {
  const JsonValue v = parse_json(
      R"({"name":"deepphi","n":42,"pi":3.25,"neg":-1e-3,"flag":true,)"
      R"("nothing":null,"list":[1,"two",{"deep":[]}]})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("name").as_string(), "deepphi");
  EXPECT_DOUBLE_EQ(v.at("n").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(v.at("pi").as_number(), 3.25);
  EXPECT_DOUBLE_EQ(v.at("neg").as_number(), -1e-3);
  EXPECT_TRUE(v.at("flag").as_bool());
  EXPECT_TRUE(v.at("nothing").is_null());
  const JsonValue& list = v.at("list");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_DOUBLE_EQ(list.at(std::size_t{0}).as_number(), 1.0);
  EXPECT_EQ(list.at(std::size_t{1}).as_string(), "two");
  EXPECT_EQ(list.at(std::size_t{2}).at("deep").size(), 0u);
}

TEST(JsonReader, DecodesEscapes) {
  const JsonValue v = parse_json(R"(["a\"b\\c\/d\n\t", "\u0041\u00e9"])");
  EXPECT_EQ(v.at(std::size_t{0}).as_string(), "a\"b\\c/d\n\t");
  EXPECT_EQ(v.at(std::size_t{1}).as_string(), "A\xc3\xa9");  // UTF-8 é
}

TEST(JsonReader, MissingAndMismatchedAccessThrows) {
  const JsonValue v = parse_json(R"({"a":1})");
  EXPECT_TRUE(v.has("a"));
  EXPECT_FALSE(v.has("b"));
  EXPECT_TRUE(v.get("b").is_null());
  EXPECT_THROW(v.at("b"), Error);
  EXPECT_THROW(v.at("a").as_string(), Error);
  EXPECT_THROW(v.as_array(), Error);
  EXPECT_THROW(v.at("a").at(std::size_t{0}), Error);
}

TEST(JsonReader, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\" 1}", "\"unterminated", "{} extra", "nul",
        "[1 2]", "{\"a\":}", "--3", "\"bad\\q\"", "\"\\u00g0\""}) {
    EXPECT_THROW(parse_json(bad), Error) << bad;
  }
}

TEST(JsonReader, RoundTripsJsonWriterOutput) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.member("name", "hostile \"quoted\" \\ value\n");
  w.member("x", 2.5);
  w.key("arr");
  w.begin_array();
  w.value(std::int64_t{-7});
  w.value(true);
  w.null();
  w.end_array();
  w.end_object();
  const JsonValue v = parse_json(os.str());
  EXPECT_EQ(v.at("name").as_string(), "hostile \"quoted\" \\ value\n");
  EXPECT_DOUBLE_EQ(v.at("x").as_number(), 2.5);
  EXPECT_EQ(v.at("arr").size(), 3u);
  EXPECT_DOUBLE_EQ(v.at("arr").at(std::size_t{0}).as_number(), -7.0);
}

// -------------------------------------------------------------- HttpListener

TEST(HttpListener, ServesGetRequestsOnEphemeralPort) {
  HttpListener http(0, [](const std::string& target) {
    const auto [path, query] = split_target(target);
    HttpListener::Response r;
    if (path == "/hello") {
      r.body = "world";
      if (!query.empty()) r.body += ":" + parse_query(query).at("x");
    } else if (path == "/json") {
      r.content_type = "application/json";
      r.body = "{\"ok\":true}";
    } else {
      r.status = 404;
      r.body = "nope";
    }
    return r;
  });
  ASSERT_GT(http.port(), 0);
  EXPECT_EQ(http_get("127.0.0.1", http.port(), "/hello"), "world");
  EXPECT_EQ(http_get("127.0.0.1", http.port(), "/json"), "{\"ok\":true}");
  // Query strings reach the handler (the admin endpoint takes parameters).
  EXPECT_EQ(http_get("127.0.0.1", http.port(), "/hello?x=1"), "world:1");
  EXPECT_THROW(http_get("127.0.0.1", http.port(), "/missing"), Error);
  EXPECT_GE(http.requests_served(), 4);
  http.stop();
  http.stop();  // idempotent
}

TEST(HttpListener, SplitTargetAndParseQuery) {
  EXPECT_EQ(split_target("/p").first, "/p");
  EXPECT_EQ(split_target("/p").second, "");
  EXPECT_EQ(split_target("/p?a=1&b=2").first, "/p");
  EXPECT_EQ(split_target("/p?a=1&b=2").second, "a=1&b=2");

  const auto q = parse_query("model=small&path=%2Ftmp%2Fv2.dpsa&flag&x=a+b");
  EXPECT_EQ(q.at("model"), "small");
  EXPECT_EQ(q.at("path"), "/tmp/v2.dpsa");
  EXPECT_EQ(q.at("flag"), "");
  EXPECT_EQ(q.at("x"), "a b");
  EXPECT_TRUE(parse_query("").empty());
}

TEST(Options, RepeatedFlagKeepsEveryValueInOrder) {
  const char* argv[] = {"prog", "--model=a=1.dpsa", "--rate=100",
                        "--model=b=2.dpsa:5", "--model", "c=3.dpsa"};
  const Options opts = Options::parse(6, argv);
  EXPECT_EQ(opts.get_string("model"), "c=3.dpsa");  // last wins for get_string
  const auto all = opts.get_repeated("model");
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0], "a=1.dpsa");
  EXPECT_EQ(all[1], "b=2.dpsa:5");
  EXPECT_EQ(all[2], "c=3.dpsa");
  EXPECT_EQ(opts.get_repeated("rate"), std::vector<std::string>{"100"});
  EXPECT_TRUE(opts.get_repeated("absent").empty());
}

TEST(HttpListener, HandlerExceptionBecomesServerError) {
  HttpListener http(0, [](const std::string&) -> HttpListener::Response {
    throw Error("boom");
  });
  try {
    http_get("127.0.0.1", http.port(), "/");
    FAIL() << "expected a non-200 failure";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("500"), std::string::npos);
  }
}

TEST(HttpListener, ConnectToClosedPortFails) {
  int dead_port;
  {
    HttpListener http(0, [](const std::string&) {
      return HttpListener::Response{};
    });
    dead_port = http.port();
  }
  EXPECT_THROW(http_get("127.0.0.1", dead_port, "/", 0.5), Error);
}

}  // namespace
}  // namespace deepphi::util
