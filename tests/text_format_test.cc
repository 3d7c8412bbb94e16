// Tests for the text-format reader's tokenizer: the edge cases of its
// grammar (line ends, whitespace, comments, signs, infinities, int64
// limits, field counts, error line numbers), byte-identical round trips
// of the catalog graphs, and a seeded differential test against the
// istringstream reader it replaced, kept here as the reference.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "gen/generators.h"
#include "graph/builder.h"
#include "io/text_format.h"
#include "testutil.h"
#include "util/rng.h"

namespace graphite {
namespace {

// ---- Reference: the istringstream reader, as it was in src/io. ----------

bool RefParseTp(const std::string& tok, TimePoint* out) {
  if (tok == "inf" || tok == "+inf") {
    *out = kTimeMax;
    return true;
  }
  if (tok == "-inf") {
    *out = kTimeMin;
    return true;
  }
  const char* first = tok.data();
  const char* const last = first + tok.size();
  if (tok.size() > 1 && tok[0] == '+' && tok[1] != '-') ++first;
  const auto [end, ec] = std::from_chars(first, last, *out);
  return ec == std::errc() && end == last;
}

Result<TemporalGraph> StreamReadTextGraph(const std::string& text) {
  TemporalGraphBuilder builder;
  BuilderOptions options;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  auto error = [&lineno](const std::string& msg) {
    return Status::InvalidArgument("line " + std::to_string(lineno) + ": " +
                                   msg);
  };
  while (std::getline(in, line)) {
    ++lineno;
    std::istringstream ls(line);
    std::string kind;
    if (!(ls >> kind) || kind[0] == '#') continue;
    auto read_int = [&ls](int64_t* v) {
      return ls >> *v && (ls.eof() || std::isspace(ls.peek()));
    };
    auto read_interval = [&ls](Interval* iv) {
      std::string a, b;
      return ls >> a >> b && RefParseTp(a, &iv->start) &&
             RefParseTp(b, &iv->end) && iv->IsValid();
    };
    auto at_end = [&ls] { return (ls >> std::ws).eof(); };
    if (kind == "H") {
      if (!read_int(&options.horizon) || options.horizon <= 0 || !at_end()) {
        return error("bad horizon");
      }
    } else if (kind == "V") {
      VertexId vid;
      Interval iv;
      if (!read_int(&vid) || !read_interval(&iv) || !at_end()) {
        return error("bad V record");
      }
      builder.AddVertex(vid, iv);
    } else if (kind == "E") {
      EdgeId eid;
      VertexId src, dst;
      Interval iv;
      if (!read_int(&eid) || !read_int(&src) || !read_int(&dst) ||
          !read_interval(&iv) || !at_end()) {
        return error("bad E record");
      }
      builder.AddEdge(eid, src, dst, iv);
    } else if (kind == "VP" || kind == "EP") {
      int64_t id;
      std::string label;
      Interval iv;
      PropValue value;
      if (!read_int(&id) || !(ls >> label) || !read_interval(&iv) ||
          !read_int(&value) || !at_end()) {
        return error("bad " + kind + " record");
      }
      if (kind == "VP") {
        builder.SetVertexProperty(id, label, iv, value);
      } else {
        builder.SetEdgeProperty(id, label, iv, value);
      }
    } else {
      return error("unknown record kind '" + kind + "'");
    }
  }
  return builder.Build(options);
}

// ---- Grammar edge cases. -------------------------------------------------

// Reads `text` from a heap buffer of exactly its size, so the sanitizer
// builds flag any read past its end (a std::string's ends in a NUL).
Result<TemporalGraph> ReadExact(const std::string& text) {
  const std::vector<char> exact(text.begin(), text.end());
  return ReadTextGraph(std::string_view(exact.data(), exact.size()));
}

std::string ErrorOf(const std::string& text) {
  const auto g = ReadExact(text);
  return g.ok() ? "ok" : g.status().message();
}

const std::string kEdge = "V 1 0 9\nV 2 0 9\nE 5 1 2 0 9\n";

std::string JoinFields(const std::vector<std::string>& fields) {
  std::string out;
  for (size_t k = 0; k < fields.size(); ++k) {
    if (k > 0) out += ' ';
    out += fields[k];
  }
  return out;
}

TEST(TextFormatTest, LineEndsAndWhitespace) {
  // The last line needs no newline.
  auto g = ReadExact("V 1 0 5\nV 2 0 5");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->num_vertices(), 2u);
  // Whitespace-only lines are blank lines.
  g = ReadExact(" \t\r\n\v\f\n\r\nV 1 0 5\n   \n");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->num_vertices(), 1u);
  // \v and \f separate fields like space and tab, also leading/trailing.
  g = ReadExact("\vV\v1\f0\t 5\f\n\fV 2 \v-inf\finf \r");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->vertex_interval(0), Interval(0, 5));
  EXPECT_EQ(g->vertex_interval(1), Interval::All());
  // A '#' glued to a kind makes the whole line a comment.
  g = ReadExact("#V 1 0 5\n\t#E 1 1 1 0 5 junk junk junk junk\n");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->num_vertices(), 0u);
  // Labels may carry '#' and bytes outside ASCII; they are not comments.
  g = ReadExact(kEdge + "EP 5 #w 0 3 1\nEP 5 \xc3\xa9 0 3 2\n");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_TRUE(g->LabelIdOf("#w").has_value());
  EXPECT_TRUE(g->LabelIdOf("\xc3\xa9").has_value());
  EXPECT_EQ(ErrorOf(""), "ok");
  EXPECT_EQ(ErrorOf("\n\n"), "ok");
}

TEST(TextFormatTest, LineNumbersCountCrlfLinesOnce) {
  EXPECT_EQ(ErrorOf("V 1 0 5\r\nV 2 0 5\r\n\r\nV 3 0 5 junk\r\nV 4 0 5\r\n"),
            "line 4: bad V record");
  EXPECT_EQ(ErrorOf("# c\r\n\r\nH 0\r\n"), "line 3: bad horizon");
  // A lone \r is a separator, not a line end.
  EXPECT_EQ(ErrorOf("V 1 0 5\rV 2 0 5\nV 3"), "line 1: bad V record");
  EXPECT_EQ(ErrorOf("V 1 0 5\nV 2 0 5\nV 3"), "line 3: bad V record");
}

TEST(TextFormatTest, FieldCountsAndErrorTexts) {
  EXPECT_EQ(ErrorOf("H"), "line 1: bad horizon");
  EXPECT_EQ(ErrorOf("H 5 5"), "line 1: bad horizon");
  EXPECT_EQ(ErrorOf("V 1 0"), "line 1: bad V record");
  EXPECT_EQ(ErrorOf("V 1 0 5 6"), "line 1: bad V record");
  EXPECT_EQ(ErrorOf(kEdge + "E 6 1 2 0"), "line 4: bad E record");
  EXPECT_EQ(ErrorOf(kEdge + "E 6 1 2 0 5 6"), "line 4: bad E record");
  EXPECT_EQ(ErrorOf(kEdge + "E 6 1 2 0 5 6 7 8 9 10"), "line 4: bad E record");
  EXPECT_EQ(ErrorOf(kEdge + "EP 5 w 0 3"), "line 4: bad EP record");
  EXPECT_EQ(ErrorOf(kEdge + "EP 5 w 0 3 1 2"), "line 4: bad EP record");
  EXPECT_EQ(ErrorOf(kEdge + "VP 1 w 0 3"), "line 4: bad VP record");
  EXPECT_EQ(ErrorOf(kEdge + "VP 1 w 0 3 1 2"), "line 4: bad VP record");
  EXPECT_EQ(ErrorOf("v 1 0 5"), "line 1: unknown record kind 'v'");
  EXPECT_EQ(ErrorOf("\tVPX 1 0 5"), "line 1: unknown record kind 'VPX'");
}

TEST(TextFormatTest, SignsAndInfinities) {
  EXPECT_EQ(ErrorOf("V +1 +0 +5"), "ok");
  EXPECT_EQ(ErrorOf("V -1 -0 -inf"), "line 1: bad V record");  // start>=end
  EXPECT_EQ(ErrorOf("V -1 -inf +inf\nV 2 -7 -0"), "ok");
  for (const char* bad : {"+", "-", "+-0", "-+0", "++1", "--1", "1-", "+ 1",
                          "Inf", "INF", "infinity", "+-inf", "nan", "0x1"}) {
    SCOPED_TRACE(bad);
    EXPECT_EQ(ErrorOf(std::string("V 1 ") + bad + " 9"),
              "line 1: bad V record");
    EXPECT_EQ(ErrorOf(std::string("V ") + bad + " 0 9"),
              "line 1: bad V record");
  }
  // Infinities are time-points only: ids, values and the horizon reject
  // them.
  for (const char* inf : {"inf", "+inf", "-inf"}) {
    SCOPED_TRACE(inf);
    EXPECT_EQ(ErrorOf(std::string("V ") + inf + " 0 5"),
              "line 1: bad V record");
    EXPECT_EQ(ErrorOf(kEdge + "E " + inf + " 1 2 0 5"),
              "line 4: bad E record");
    EXPECT_EQ(ErrorOf(kEdge + "E 6 " + inf + " 2 0 5"),
              "line 4: bad E record");
    EXPECT_EQ(ErrorOf(kEdge + "EP 5 w 0 3 " + inf), "line 4: bad EP record");
    EXPECT_EQ(ErrorOf(std::string("H ") + inf), "line 1: bad horizon");
  }
}

TEST(TextFormatTest, Int64LimitsInEveryNumericField) {
  const std::string max = "9223372036854775807";
  const std::string over = "9223372036854775808";
  const std::string under = "-9223372036854775809";
  EXPECT_EQ(ErrorOf("V " + max + " 0 5\nV -" + max + " 0 5"), "ok");
  // The most negative int64 is -inf as a time-point.
  auto g = ReadTextGraph("V 1 -9223372036854775808 5");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->vertex_interval(0).start, kTimeMin);
  for (const std::string& big : {over, under, "+" + over, "1" + max}) {
    SCOPED_TRACE(big);
    EXPECT_EQ(ErrorOf("H " + big), "line 1: bad horizon");
    EXPECT_EQ(ErrorOf("V " + big + " 0 5"), "line 1: bad V record");
    EXPECT_EQ(ErrorOf("V 1 " + big + " 5"), "line 1: bad V record");
    EXPECT_EQ(ErrorOf("V 1 0 " + big), "line 1: bad V record");
    for (int field = 1; field <= 5; ++field) {
      std::vector<std::string> rec = {"E", "6", "1", "2", "0", "5"};
      rec[field] = big;
      const std::string line = JoinFields(rec);
      EXPECT_EQ(ErrorOf(kEdge + line), "line 4: bad E record") << line;
    }
    for (const char* kind : {"VP", "EP"}) {
      for (int field : {1, 3, 4, 5}) {
        std::vector<std::string> rec = {kind, kind[0] == 'V' ? "1" : "5", "w",
                                        "0",  "3",                        "1"};
        rec[field] = big;
        const std::string line = JoinFields(rec);
        EXPECT_EQ(ErrorOf(kEdge + line),
                  "line 4: bad " + std::string(kind) + " record")
            << line;
      }
    }
  }
}

TEST(TextFormatTest, CatalogGraphsRoundTripByteIdentical) {
  for (const DatasetSpec& spec : DatasetCatalog(/*scale=*/0.05)) {
    SCOPED_TRACE(spec.name);
    const std::string text = WriteTextGraph(Generate(spec.options));
    auto parsed = ReadTextGraph(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(WriteTextGraph(*parsed), text);
  }
}

// The file reader sizes its buffer from fstat but reads on to EOF: a
// procfs file stats as an empty regular file yet has content.
TEST(TextFormatTest, FileReadsPastItsStatSize) {
  struct stat st;
  if (stat("/proc/self/status", &st) != 0 || !S_ISREG(st.st_mode) ||
      st.st_size != 0) {
    GTEST_SKIP() << "no procfs";
  }
  const auto g = ReadTextGraphFile("/proc/self/status");
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().message(), "line 1: unknown record kind 'Name:'");
  const std::string empty = ::testing::TempDir() + "/empty.txt";
  std::FILE* f = std::fopen(empty.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  const auto e = ReadTextGraphFile(empty);
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_EQ(e->num_vertices(), 0u);
}

// ---- Differential: in-place tokenizer vs the istringstream reference. ---

std::vector<std::string> SplitOn(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t begin = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(begin, i - begin));
      begin = i + 1;
    }
  }
  return out;
}

template <size_t N>
const char* Pick(Rng* rng, const char* const (&options)[N]) {
  return options[rng->Uniform(N)];
}

// One random edit of a record: drop or duplicate a token, turn a digit
// into a letter, add a sign, swap in an infinity or an int64 boundary,
// reshuffle the whitespace, or break the record kind or the line.
std::string MutateRecord(const std::string& line, Rng* rng) {
  std::vector<std::string> toks = SplitOn(line, ' ');
  const size_t i = rng->Uniform(toks.size());
  const std::string tok = toks[i];
  switch (rng->Uniform(9)) {
    case 0:
      toks.erase(toks.begin() + static_cast<ptrdiff_t>(i));
      break;
    case 1:
      toks.insert(toks.begin() + static_cast<ptrdiff_t>(i), tok);
      break;
    case 2: {
      std::vector<size_t> digits;
      for (size_t k = 0; k < tok.size(); ++k) {
        if (tok[k] >= '0' && tok[k] <= '9') digits.push_back(k);
      }
      if (digits.empty()) {
        toks[i] += static_cast<char>('a' + rng->Uniform(26));
      } else {
        toks[i][digits[rng->Uniform(digits.size())]] =
            static_cast<char>('a' + rng->Uniform(26));
      }
      break;
    }
    case 3: {
      static const char* const kSigns[] = {"+", "-", "+-", "-+", "++", "--"};
      toks[i] = Pick(rng, kSigns) + tok;
      break;
    }
    case 4: {
      static const char* const kInfs[] = {"inf",  "+inf", "-inf", "Inf",
                                          "+",    "-",    "in",   "infinity",
                                          "-in",  "+-inf", "nan", "inf0"};
      toks[i] = Pick(rng, kInfs);
      break;
    }
    case 5: {
      static const char* const kNumbers[] = {
          "9223372036854775807",  "9223372036854775808",
          "-9223372036854775808", "-9223372036854775809",
          "+9223372036854775807", "18446744073709551616",
          "0",                    "-0",
          "+0",                   "007",
          "0x1F",                 "1e3",
          "5.0",                  "1,000",
          "\xa0" "1",             "\x85",
          "#",                    "3#"};
      toks[i] = Pick(rng, kNumbers);
      break;
    }
    case 6: {
      static const char* const kSpaces[] = {" ",  "\t", "\v",   "\f",
                                            "\r", "  ", " \t ", "\r\f"};
      std::string out = rng->Bernoulli(0.3) ? Pick(rng, kSpaces) : "";
      for (size_t k = 0; k < toks.size(); ++k) {
        if (k > 0) out += Pick(rng, kSpaces);
        out += toks[k];
      }
      if (rng->Bernoulli(0.3)) out += Pick(rng, kSpaces);
      return out;
    }
    case 7: {
      static const char* const kKinds[] = {"#",  "v",  "X", "VP", "EP",
                                           "V",  "E",  "H", "#V", "ep"};
      toks[0] = Pick(rng, kKinds);
      break;
    }
    default:
      // Break the record across two lines, or glue a NUL into a field.
      if (rng->Bernoulli(0.5)) {
        toks[i].insert(0, "\n");
      } else {
        toks[i].insert(rng->Uniform(tok.size() + 1), std::string(1, '\0'));
      }
      break;
  }
  return JoinFields(toks);
}

TEST(TextFormatDifferentialTest, MutatedRecordsAgreeWithStreamReader) {
  const std::string base = WriteTextGraph(testutil::MakeTransitGraph()) +
                           "VP 0 rank 0 5 3\nVP 1 rank 0 +inf -2\n"
                           "VP 2 hub 1 4 +9\n";
  std::vector<std::string> lines = SplitOn(base, '\n');
  lines.pop_back();  // The text ends in a newline.
  ASSERT_TRUE(StreamReadTextGraph(base).ok());
  ASSERT_EQ(WriteTextGraph(*ReadTextGraph(base)),
            WriteTextGraph(*StreamReadTextGraph(base)));

  Rng rng(20201);
  constexpr int kTrials = 2500;
  int accepted = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<std::string> mutated = lines;
    // One record per trial, sometimes two more on top; line 0 is the
    // comment the writer puts first.
    const int edits = rng.Bernoulli(0.2) ? 3 : 1;
    for (int e = 0; e < edits; ++e) {
      std::string& line = mutated[1 + rng.Uniform(mutated.size() - 1)];
      line = MutateRecord(line, &rng);
    }
    const char* eol = rng.Bernoulli(0.25) ? "\r\n" : "\n";
    std::string text;
    for (const std::string& line : mutated) text += line + eol;
    if (rng.Bernoulli(0.25)) text.resize(text.size() - std::strlen(eol));

    const auto ours = ReadExact(text);
    const auto ref = StreamReadTextGraph(text);
    ASSERT_EQ(ours.ok(), ref.ok())
        << "trial " << trial << ": " << ours.status().ToString() << " vs "
        << ref.status().ToString() << "\n" << text;
    if (ours.ok()) {
      ++accepted;
      ASSERT_EQ(WriteTextGraph(*ours), WriteTextGraph(*ref))
          << "trial " << trial << "\n" << text;
    } else {
      ASSERT_EQ(ours.status().ToString(), ref.status().ToString())
          << "trial " << trial << "\n" << text;
    }
  }
  // Both outcomes must be well represented for the agreement to mean
  // anything.
  EXPECT_GT(accepted, kTrials / 10);
  EXPECT_LT(accepted, kTrials * 9 / 10);
}

}  // namespace
}  // namespace graphite
