//===- tests/trace/LexerGoldenTest.cpp ------------------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Golden pins on what the salvage lexer accepts.  The sharded-ingestion
// differentials (IngestSessionTest) compare the lexer with itself at other
// thread counts and shard sizes, so a change in what it accepts -- a sign,
// a saturated value, an odd separator, an op name that is one byte off --
// would pass them.  This suite ingests a seeded corpus of near-canonical
// lines with exactly those edge shapes and pins the digest of the
// serialized Trace and of IngestReport::summary() (with every diagnostic
// kept), at several shard sizes and thread counts, through both the
// feed() and the mapped-file paths.
//
// A deliberate change in what the lexer accepts re-pins the digests; the
// failure message prints the new values.
//
//===----------------------------------------------------------------------===//

#include "TestScratch.h"

#include "support/Snapshot.h"
#include "trace/IngestSession.h"
#include "trace/TraceIO.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

using namespace cafa;

namespace {

/// splitmix64: cheap, deterministic, well mixed.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    State += 0x9e3779b97f4a7c15ull;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  uint64_t below(uint64_t N) { return next() % N; }
  bool chance(uint64_t Percent) { return below(100) < Percent; }
  template <typename T, size_t N> const T &pick(const T (&Arr)[N]) {
    return Arr[below(N)];
  }

private:
  uint64_t State;
};

/// Numeric spellings around the edges of strtoull: signs, leading zeros,
/// 19-, 20- and 21-digit values (20 digits may or may not saturate),
/// UINT32_MAX and UINT32_MAX + 1, and a few tokens that are not numbers
/// (one holds a NUL byte).
const std::string_view EdgeNumbers[] = {
    "+7",
    "-7",
    "-0",
    "+0",
    "007",
    "0000000000",
    "4294967295",
    "4294967296",
    "04294967295",
    "1234567890123456789",
    "9999999999999999999",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999",
    "00000000000000000042",
    "123456789012345678901",
    "000000000000000000007",
    "+-5",
    "--5",
    "+",
    "-",
    "5a",
    "0x10",
    "1e3",
    std::string_view("4\0" "2", 3),
};

/// Spellings that do not change a timestamp's value, so the records after
/// a mutated line still carry their own times.
const char *const SafeTimePrefixes[] = {"+", "0", "00", "000000"};

/// Separators the token path treats as one space, and shapes it rejects.
const char *const Separators[] = {"\t", "\v", "\f", "  ", " \t ", "\r",
                                  " \v"};

const char *const OpNames[] = {
    "begin",    "end",         "rd",       "wr",       "fork",
    "join",     "wait",        "notify",   "send",     "sendatfront",
    "register", "perform",     "lock",     "unlock",   "ipcsend",
    "ipcrecv",  "ptrread",     "ptrwrite", "deref",    "branch",
    "methenter", "methexit",
};

/// Op tokens one byte off a real name, too long, differently cased, or
/// holding a NUL byte (the lookup compares up to the NUL).
/// "end" and "join" are left out: a variant that still reads as one ends
/// a thread, and every later record of it would be dropped unread.
std::string opVariant(Rng &R) {
  std::string Name;
  do
    Name = R.pick(OpNames);
  while (Name == "end" || Name == "join");
  switch (R.below(9)) {
  case 0:
    return Name.substr(0, Name.size() - 1); // "sendatfron", "methexi"
  case 1:
    return Name + "x"; // "methenterx"
  case 2:
    return Name + std::string(1, '\0');
  case 3:
    return Name + std::string(1, '\0') + "zz";
  case 4: {
    size_t Cut = 1 + R.below(Name.size());
    return Name.substr(0, Cut) + std::string(1, '\0') + Name.substr(Cut);
  }
  case 5:
    return std::string(1, '\0') + Name;
  case 6:
    return Name + Name; // "sendatfrontsendatfront" is past any name's length
  case 7: {
    std::string Up = Name;
    Up[0] = static_cast<char>(Up[0] - 'a' + 'A');
    return Up;
  }
  default:
    return "sendatfrontx";
  }
}

/// Builds one line from its tokens, mutating it with the given odds.
/// \p NumericFields lists the token indices holding numbers, \p TimeField
/// the timestamp index (or -1), \p OpField the op-name index (or -1).
std::string buildLine(Rng &R, std::vector<std::string> Toks,
                      const std::vector<size_t> &NumericFields, int TimeField,
                      int OpField, bool AnyTime) {
  std::vector<std::string> Seps(Toks.size() > 1 ? Toks.size() - 1 : 0, " ");
  std::string Lead, Trail, Eol = "\n";
  unsigned Mutations = R.chance(40) ? (R.chance(12) ? 2 : 1) : 0;
  for (unsigned M = 0; M != Mutations; ++M) {
    switch (R.below(8)) {
    case 0:
    case 1:
    case 2: {
      size_t F = NumericFields[R.below(NumericFields.size())];
      if (F >= Toks.size())
        break; // an earlier mutation dropped the field
      if (static_cast<int>(F) == TimeField && !AnyTime)
        Toks[F] = std::string(R.pick(SafeTimePrefixes)) + Toks[F];
      else
        Toks[F] = std::string(R.pick(EdgeNumbers));
      break;
    }
    case 3:
      if (!Seps.empty())
        Seps[R.below(Seps.size())] = R.pick(Separators);
      break;
    case 4:
      if (R.chance(50))
        Lead = R.chance(50) ? " " : "\t";
      else
        Trail = R.chance(50) ? " " : (R.chance(50) ? "\t" : "\v");
      break;
    case 5:
      Eol = "\r\n";
      break;
    case 6:
      // One token too many (13 on a task line) or one too few.
      if (R.chance(50))
        Toks.push_back("0");
      else if (Toks.size() > 1)
        Toks.pop_back();
      Seps.assign(Toks.size() > 1 ? Toks.size() - 1 : 0, " ");
      break;
    default:
      if (OpField >= 0)
        Toks[static_cast<size_t>(OpField)] = opVariant(R);
      else
        Eol = "\r\n";
      break;
    }
  }
  std::string Line = Lead;
  for (size_t I = 0; I != Toks.size(); ++I) {
    if (I)
      Line += Seps[I - 1];
    Line += Toks[I];
  }
  return Line + Trail + Eol;
}

std::string num(uint64_t V) { return std::to_string(V); }

/// The seeded corpus: a header, declarations, four begun threads, then
/// ~3,000 record lines with interleaved declarations, blank, comment and
/// unknown-directive lines, and a tail whose timestamps may take any edge
/// spelling (a saturated time clamps every later record, so it comes
/// last).
std::string goldenCorpus() {
  Rng R(0x6c65786572ull);
  std::string Out = "cafa-trace v1\n";
  const std::vector<size_t> DeclNums = {1, 3};
  uint32_t Methods = 0, Listeners = 0, Tasks = 0;

  auto method = [&] {
    std::string Name = R.chance(20) ? "-" : "m" + num(Methods) + "\\sx";
    Out += buildLine(R, {"method", num(Methods), Name, num(16 + R.below(200))},
                     DeclNums, -1, -1, false);
    ++Methods;
  };
  auto listener = [&] {
    Out += buildLine(R, {"listener", num(Listeners), "on" + num(Listeners),
                         num(R.below(2))},
                     DeclNums, -1, -1, false);
    ++Listeners;
  };
  auto task = [&](bool Event) {
    std::vector<std::string> Toks = {
        "task",          num(Tasks),
        Event ? "event" : (R.chance(5) ? "thraed" : "thread"),
        R.chance(15) ? "-" : "t" + num(Tasks),
        "0",             Event ? "0" : "4294967295",
        num(R.below(3)), num(R.chance(30) ? R.below(50) : 0),
        num(R.below(2)), num(Event ? R.below(2) : 0),
        "4294967295",    num(R.below(2))};
    Out += buildLine(R, Toks, {1, 4, 5, 6, 7, 8, 9, 10, 11}, -1, -1, false);
    ++Tasks;
  };

  for (int I = 0; I != 4; ++I)
    method();
  Out += "queue 0 main-queue 4294967295\n";
  listener();
  for (int I = 0; I != 4; ++I)
    task(false);
  task(true);
  task(true);

  uint64_t Time = 1;
  for (uint32_t T = 0; T != 4; ++T)
    Out += "rec " + num(T) + " begin 4294967295 0 0 0 0 " + num(Time++) + "\n";

  uint64_t NextFrame = 1000;
  std::vector<std::vector<uint64_t>> Frames(4);
  std::vector<std::vector<uint64_t>> Locks(4);
  const std::vector<size_t> RecNums = {1, 3, 4, 5, 6, 7, 8};
  for (int I = 0; I != 3200; ++I) {
    bool Tail = I >= 3000;
    switch (R.below(40)) {
    case 0:
      method();
      continue;
    case 1:
      listener();
      continue;
    case 2:
      task(R.chance(30));
      continue;
    case 3: {
      const char *Empty[] = {"\n", "# comment\n", "   \t \n", "\r\n",
                             "#\r\n"};
      Out += R.pick(Empty);
      continue;
    }
    case 4: {
      const char *Unknown[] = {"frob 1 2",
                               "recx 0 rd 0 0 1 0 0 9",
                               "Rec 0 rd 0 0 1 0 0 9",
                               "cafa-trace v1",
                               "tasks 1 thread x",
                               "r\x01 0 rd"};
      Out += std::string(R.pick(Unknown)) + (R.chance(50) ? "\n" : "\r\n");
      if (R.chance(20))
        Out += std::string("fr\0b 1\n", 7); // NUL inside the directive
      continue;
    }
    case 5:
      Out += std::string("rec 0 rd\0 0 0 1 0 0 ", 21) + num(Time++) + "\n";
      continue;
    default:
      break;
    }
    uint32_t T = static_cast<uint32_t>(R.below(4));
    std::string Op;
    uint64_t A0 = R.below(64), A1 = R.below(1000), A2 = R.below(8);
    uint64_t Method = R.below(Methods + 1);
    switch (R.below(12)) {
    case 0:
      Op = "methenter";
      A0 = NextFrame++;
      Frames[T].push_back(A0);
      break;
    case 1:
      Op = "methexit";
      if (!Frames[T].empty()) {
        A0 = Frames[T].back();
        Frames[T].pop_back();
      }
      break;
    case 2:
      Op = "lock";
      Locks[T].push_back(A0);
      break;
    case 3:
      Op = "unlock";
      if (!Locks[T].empty()) {
        A0 = Locks[T].back();
        Locks[T].pop_back();
      }
      break;
    case 4:
      Op = "branch";
      A0 = R.below(3);
      Method = R.below(Methods);
      break;
    case 5:
      Op = R.chance(50) ? "register" : "perform";
      A0 = R.below(Listeners);
      break;
    default: {
      const char *Plain[] = {"rd",    "wr",      "ptrread", "ptrwrite",
                             "deref", "ipcsend", "ipcrecv", "wait",
                             "notify"};
      Op = R.pick(Plain);
      break;
    }
    }
    Time += R.below(3);
    std::string MethodField =
        Method == Methods ? "4294967295" : num(Method);
    std::vector<std::string> Toks = {"rec",   num(T),           Op,
                                     MethodField, num(R.below(400)),
                                     num(A0), num(A1),          num(A2),
                                     num(Time)};
    Out += buildLine(R, Toks, RecNums, 8, 2, Tail);
  }

  // Every name one byte short and one byte long, then cut by a NUL.  Some
  // of these still read as a name (a NUL cut after "end" ends thread 1),
  // so they come last.
  for (const char *Name : OpNames) {
    std::string N = Name;
    std::string Rest = " 4294967295 0 " + num(NextFrame++) + " 0 0 " +
                       num(Time) + "\n";
    Out += "rec 1 " + N.substr(0, N.size() - 1) + Rest;
    Out += "rec 1 " + N + "x" + Rest;
    Out += "rec 1 " + N.substr(0, 2) + std::string(1, '\0') + N.substr(2) +
           Rest;
    Out += "rec 1 " + N + std::string(1, '\0') + "x" + Rest;
  }
  return Out;
}

struct Golden {
  uint64_t TraceDigest = 0;
  uint64_t SummaryDigest = 0;
  std::string SummaryHead; ///< first line of the summary: the counters
  bool Ok = false;
};

SalvageOptions goldenSalvage() {
  SalvageOptions S;
  S.MaxDiagnostics = UINT32_MAX; // every incident's text lands in summary()
  S.MaxDroppedRatio = 1.0;
  return S;
}

Golden digest(Status S, const Trace &T, const IngestReport &Rep) {
  Golden G;
  G.Ok = S.ok();
  std::string Text = serializeTrace(T);
  std::string Summary = Rep.summary();
  G.TraceDigest = fnv1a64(Text.data(), Text.size());
  G.SummaryDigest = fnv1a64(Summary.data(), Summary.size());
  G.SummaryHead = Summary.substr(0, Summary.find('\n'));
  return G;
}

/// Ingests \p Text through feed(), or the file at \p Path when given
/// (the mapped path cuts its shards as views).
Golden ingest(const std::string &Text, const std::string &Path,
              unsigned Threads, uint64_t ShardBytes) {
  IngestOptions O;
  O.Salvage = goldenSalvage();
  O.Threads = Threads;
  O.ShardBytes = ShardBytes;
  Trace T;
  IngestReport Rep;
  Status S = Path.empty() ? ingestTrace(Text, T, Rep, O)
                          : ingestTraceFile(Path, T, Rep, O);
  return digest(S, T, Rep);
}

std::string hex(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "0x%016" PRIx64, V);
  return Buf;
}

// Recorded with the token-path lexer alone (strtoull-equivalent field
// parsing, strcmp op-name lookup), before the plain-field fast path and
// the length-first op-name match existed.
constexpr uint64_t GoldenTraceDigest = 0xb2ce8d43e3f4902eull;
constexpr uint64_t GoldenSummaryDigest = 0x18f2dc652bf91d3aull;
constexpr const char GoldenSummaryHead[] =
    "ingest: 3247 lines, 2240 records kept, 778 lines dropped, 294 repaired, "
    "183 synthesized, 1091 placeholder table entries";

void expectGolden(const Golden &G, const std::string &Where) {
  EXPECT_TRUE(G.Ok) << Where;
  EXPECT_EQ(G.SummaryHead, GoldenSummaryHead) << Where;
  EXPECT_EQ(G.TraceDigest, GoldenTraceDigest)
      << Where << ": trace digest " << hex(G.TraceDigest);
  EXPECT_EQ(G.SummaryDigest, GoldenSummaryDigest)
      << Where << ": summary digest " << hex(G.SummaryDigest);
}

} // namespace

TEST(LexerGoldenTest, CorpusHasTheEdgeShapes) {
  std::string Text = goldenCorpus();
  auto has = [&](std::string_view Needle) {
    return Text.find(Needle) != std::string::npos;
  };
  EXPECT_TRUE(has("\r\n"));
  EXPECT_TRUE(has("\t"));
  EXPECT_TRUE(has("\v"));
  EXPECT_TRUE(has(" 18446744073709551616"));
  EXPECT_TRUE(has(" 123456789012345678901"));
  EXPECT_TRUE(has(" 4294967296 "));
  EXPECT_TRUE(has(" +7 "));
  EXPECT_TRUE(has(" -7 "));
  EXPECT_TRUE(has(std::string_view("rd\0", 3)));
  EXPECT_TRUE(has(" sendatfron "));
  EXPECT_TRUE(has(" methenterx "));
  EXPECT_GT(Text.size(), 100000u);
}

TEST(LexerGoldenTest, DigestsMatchAtEveryShardSizeAndThreadCount) {
  const std::string Text = goldenCorpus();
  const std::string Path = uniqueScratchDir() + "/golden.trace";
  {
    std::ofstream OS(Path, std::ios::binary);
    OS.write(Text.data(), static_cast<std::streamsize>(Text.size()));
  }
  const uint64_t DefaultShard = IngestOptions().ShardBytes;
  for (uint64_t Shard : {uint64_t(1), uint64_t(64), DefaultShard}) {
    for (unsigned Threads : {1u, 2u, 8u}) {
      std::string Where = "shard=" + std::to_string(Shard) +
                          " threads=" + std::to_string(Threads);
      expectGolden(ingest(Text, "", Threads, Shard), Where + " feed");
      expectGolden(ingest(Text, Path, Threads, Shard), Where + " file");
    }
  }
}

TEST(LexerGoldenTest, OpNamesMatchWholeTokensUpToAnEmbeddedNul) {
  // The op token is compared up to its first NUL byte, and only whole
  // names match.
  auto kindOf = [](std::string_view Op, std::string &Diag) -> std::string {
    std::string Text = "cafa-trace v1\ntask 0 thread t 0 4294967295 0 0 0 0 "
                       "4294967295 0\nrec 0 begin 4294967295 0 0 0 0 1\n"
                       "rec 0 ";
    Text.append(Op);
    Text += " 4294967295 0 3 0 0 2\n";
    Trace T;
    IngestReport Rep;
    IngestOptions O;
    O.Threads = 1;
    EXPECT_TRUE(ingestTrace(Text, T, Rep, O).ok());
    Diag = Rep.Diagnostics.empty() ? "" : Rep.Diagnostics[0].Message;
    // A methexit with no open frame is admitted after a synthesized enter.
    return T.numRecords() > 1 ? opKindName(T.records().back().Kind) : "";
  };
  std::string Diag;
  EXPECT_EQ(kindOf("methenter", Diag), "methenter");
  EXPECT_EQ(kindOf("methexit", Diag), "methexit");
  EXPECT_EQ(kindOf(std::string_view("rd\0x", 4), Diag), "rd");
  EXPECT_EQ(kindOf(std::string_view("wr\0", 3), Diag), "wr");
  EXPECT_EQ(kindOf("sendatfron", Diag), "");
  EXPECT_EQ(Diag, "bad field in rec line");
  EXPECT_EQ(kindOf("methenterx", Diag), "");
  EXPECT_EQ(kindOf(std::string_view("\0rd", 3), Diag), "");
  EXPECT_EQ(kindOf("sendatfrontsendatfront", Diag), "");
  EXPECT_EQ(kindOf(std::string_view("sendatfrontxxxx\0", 16), Diag), "");
}
