//===- cafa/ReportJson.cpp - Machine-readable report output -------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "cafa/ReportJson.h"

#include "support/Format.h"

#include <cctype>
#include <cstdlib>
#include <sstream>

using namespace cafa;

std::string cafa::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out += formatString("\\u%04x", C);
      else
        Out.push_back(C);
    }
  }
  return Out;
}

namespace {

/// Renders one access as a JSON object.
std::string accessJson(const std::string &Method, uint32_t Pc,
                       const std::string &Task, uint32_t Record) {
  return formatString(
      "{\"method\": \"%s\", \"pc\": %u, \"task\": \"%s\", "
      "\"record\": %u}",
      jsonEscape(Method).c_str(), Pc, jsonEscape(Task).c_str(), Record);
}

} // namespace

std::string cafa::renderRaceReportJson(const RaceDocument &Doc) {
  std::ostringstream OS;
  OS << "{\n  \"races\": [";
  bool First = true;
  // Only a cut happens-before relation makes findings provisional; the
  // field is omitted entirely from complete reports so resumed runs stay
  // byte-identical to uninterrupted ones.
  const char *Provisional =
      Doc.Provisional ? ", \"provisional\": true" : "";
  for (const RaceRecord &Race : Doc.Races) {
    OS << (First ? "\n" : ",\n");
    First = false;
    // The verdict field appears only once confirmation ran, so
    // unconfirmed corpora keep their pinned pre-confirmation bytes.
    std::string Confirm =
        Race.Verdict == ConfirmVerdict::None
            ? std::string()
            : formatString(", \"confirm\": \"%s\"",
                           confirmVerdictName(Race.Verdict));
    OS << formatString(
        "    {\"category\": \"%s\", \"dynamicCount\": %u%s%s,\n"
        "     \"use\": %s,\n     \"free\": %s}",
        Race.Category.c_str(), Race.DynamicCount, Provisional,
        Confirm.c_str(),
        accessJson(Race.UseMethod, Race.UsePc, Race.UseTask,
                   Race.UseRecord)
            .c_str(),
        accessJson(Race.FreeMethod, Race.FreePc, Race.FreeTask,
                   Race.FreeRecord)
            .c_str());
  }
  const FilterCounters &F = Doc.Filters;
  OS << "\n  ],\n";
  OS << formatString(
      "  \"filters\": {\"candidates\": %llu, \"orderedByHb\": %llu, "
      "\"sameTask\": %llu, \"lockset\": %llu, \"ifGuard\": %llu, "
      "\"intraEventAlloc\": %llu},\n",
      static_cast<unsigned long long>(F.CandidatePairs),
      static_cast<unsigned long long>(F.OrderedByHb),
      static_cast<unsigned long long>(F.SameTask),
      static_cast<unsigned long long>(F.LocksetProtected),
      static_cast<unsigned long long>(F.IfGuardFiltered),
      static_cast<unsigned long long>(F.IntraEventAlloc));
  OS << formatString("  \"partial\": %s", Doc.Partial ? "true" : "false");
  if (Doc.Partial) {
    OS << formatString(",\n  \"partialCause\": \"%s\"",
                       jsonEscape(Doc.PartialCause).c_str());
    if (!Doc.PartialDetail.empty())
      OS << formatString(",\n  \"partialDetail\": \"%s\"",
                         jsonEscape(Doc.PartialDetail).c_str());
  }
  OS << "\n}\n";
  return OS.str();
}

std::string cafa::renderRaceReportJson(const RaceReport &Report,
                                       const Trace &T) {
  return renderRaceReportJson(buildRaceDocument(Report, T));
}

std::string cafa::renderRaceLine(const RaceRecord &Race) {
  return formatString("use %s:%u in %s  ~  free %s:%u in %s  [%s, x%u]",
                      Race.UseMethod.c_str(), Race.UsePc,
                      Race.UseTask.c_str(), Race.FreeMethod.c_str(),
                      Race.FreePc, Race.FreeTask.c_str(),
                      Race.Category.c_str(), Race.DynamicCount);
}

std::string cafa::renderRaceReport(const RaceReport &Report,
                                   const Trace &T) {
  return renderRaceReportText(buildRaceDocument(Report, T));
}

std::string cafa::renderRaceReportText(const RaceDocument &Doc) {
  std::ostringstream OS;
  OS << Doc.Races.size() << " use-free race(s) reported\n";
  size_t N = 0;
  // A race found against a cut happens-before relation may be ordered
  // away once the fixpoint saturates; mark it so a partial report is
  // never mistaken for a confirmed finding.  Complete reports render
  // without any marker -- resumed runs stay byte-identical to
  // uninterrupted ones.
  const char *Suffix = Doc.Provisional ? "  (provisional)" : "";
  for (const RaceRecord &Race : Doc.Races) {
    std::string Verdict =
        Race.Verdict == ConfirmVerdict::None
            ? std::string()
            : formatString("  => %s", confirmVerdictName(Race.Verdict));
    OS << formatString("  #%zu  %s%s%s\n", ++N, renderRaceLine(Race).c_str(),
                       Suffix, Verdict.c_str());
  }
  const FilterCounters &F = Doc.Filters;
  OS << formatString(
      "candidates=%llu orderedByHb=%llu sameTask=%llu lockset=%llu "
      "ifGuard=%llu intraEventAlloc=%llu\n",
      static_cast<unsigned long long>(F.CandidatePairs),
      static_cast<unsigned long long>(F.OrderedByHb),
      static_cast<unsigned long long>(F.SameTask),
      static_cast<unsigned long long>(F.LocksetProtected),
      static_cast<unsigned long long>(F.IfGuardFiltered),
      static_cast<unsigned long long>(F.IntraEventAlloc));
  if (Doc.Partial) {
    OS << formatString("PARTIAL result (%s): analysis stopped early; "
                       "races may be missing or unfiltered\n",
                       Doc.PartialCause.c_str());
    if (!Doc.PartialDetail.empty())
      OS << formatString("  %s\n", Doc.PartialDetail.c_str());
  }
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Minimal JSON reader
//===----------------------------------------------------------------------===//
//
// CAFA only ever parses JSON this project itself emitted
// (renderRaceReportJson), so a small strict reader is enough; it still
// parses arbitrary well-formed JSON so schema growth on the emitter side
// cannot break older supervisors.

namespace {

struct JsonValue {
  enum Kind : uint8_t { Null, Bool, Number, String, Array, Object };
  Kind K = Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<JsonValue> Items;
  std::vector<std::pair<std::string, JsonValue>> Fields;

  /// Returns the named object field, or null when absent.
  const JsonValue *field(const char *Name) const {
    for (const auto &[Key, Value] : Fields)
      if (Key == Name)
        return &Value;
    return nullptr;
  }
};

class JsonReader {
public:
  JsonReader(const std::string &Text) : Text(Text) {}

  Status parse(JsonValue &Out) {
    Status S = value(Out);
    if (!S.ok())
      return S;
    skipSpace();
    if (Pos != Text.size())
      return fail("trailing bytes after JSON value");
    return Status::success();
  }

private:
  Status fail(const std::string &Why) {
    return Status::error(
        formatString("report JSON byte %zu: %s", Pos, Why.c_str()));
  }

  void skipSpace() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool eat(char C) {
    skipSpace();
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  Status value(JsonValue &Out) {
    skipSpace();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    if (C == '{')
      return object(Out);
    if (C == '[')
      return array(Out);
    if (C == '"') {
      Out.K = JsonValue::String;
      return string(Out.Str);
    }
    if (C == 't' || C == 'f')
      return boolean(Out);
    if (C == 'n') {
      if (Text.compare(Pos, 4, "null") != 0)
        return fail("bad literal");
      Pos += 4;
      Out.K = JsonValue::Null;
      return Status::success();
    }
    return number(Out);
  }

  Status object(JsonValue &Out) {
    Out.K = JsonValue::Object;
    ++Pos; // '{'
    if (eat('}'))
      return Status::success();
    for (;;) {
      skipSpace();
      std::string Key;
      if (Pos >= Text.size() || Text[Pos] != '"')
        return fail("expected object key");
      if (Status S = string(Key); !S.ok())
        return S;
      if (!eat(':'))
        return fail("expected ':'");
      JsonValue V;
      if (Status S = value(V); !S.ok())
        return S;
      Out.Fields.emplace_back(std::move(Key), std::move(V));
      if (eat(','))
        continue;
      if (eat('}'))
        return Status::success();
      return fail("expected ',' or '}'");
    }
  }

  Status array(JsonValue &Out) {
    Out.K = JsonValue::Array;
    ++Pos; // '['
    if (eat(']'))
      return Status::success();
    for (;;) {
      JsonValue V;
      if (Status S = value(V); !S.ok())
        return S;
      Out.Items.push_back(std::move(V));
      if (eat(','))
        continue;
      if (eat(']'))
        return Status::success();
      return fail("expected ',' or ']'");
    }
  }

  Status string(std::string &Out) {
    ++Pos; // opening quote
    Out.clear();
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return Status::success();
      if (C != '\\') {
        Out.push_back(C);
        continue;
      }
      if (Pos >= Text.size())
        break;
      char E = Text[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out.push_back(E);
        break;
      case 'n':
        Out.push_back('\n');
        break;
      case 't':
        Out.push_back('\t');
        break;
      case 'r':
        Out.push_back('\r');
        break;
      case 'b':
        Out.push_back('\b');
        break;
      case 'f':
        Out.push_back('\f');
        break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return fail("truncated \\u escape");
        unsigned Code = 0;
        for (int I = 0; I < 4; ++I) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code |= static_cast<unsigned>(H - 'A' + 10);
          else
            return fail("bad \\u escape");
        }
        // Our emitter only produces \u00xx for control bytes; decode
        // the Latin-1 range and reject the rest rather than guessing
        // at UTF-16 surrogate handling we never emit.
        if (Code > 0xFF)
          return fail("unsupported \\u escape beyond U+00FF");
        Out.push_back(static_cast<char>(Code));
        break;
      }
      default:
        return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  Status boolean(JsonValue &Out) {
    Out.K = JsonValue::Bool;
    if (Text.compare(Pos, 4, "true") == 0) {
      Out.B = true;
      Pos += 4;
      return Status::success();
    }
    if (Text.compare(Pos, 5, "false") == 0) {
      Out.B = false;
      Pos += 5;
      return Status::success();
    }
    return fail("bad literal");
  }

  Status number(JsonValue &Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && (Text[Pos] == '-' || Text[Pos] == '+'))
      ++Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '-' || Text[Pos] == '+'))
      ++Pos;
    if (Pos == Start)
      return fail("expected a value");
    Out.K = JsonValue::Number;
    Out.Num = std::strtod(Text.c_str() + Start, nullptr);
    return Status::success();
  }

  const std::string &Text;
  size_t Pos = 0;
};

/// Reads one "use"/"free" access object into a record's fields.
Status readAccess(const JsonValue &Access, std::string &Method,
                  uint32_t &Pc, std::string &Task, uint32_t &Record) {
  const JsonValue *M = Access.field("method");
  const JsonValue *P = Access.field("pc");
  if (!M || M->K != JsonValue::String || !P || P->K != JsonValue::Number)
    return Status::error("race access missing method/pc");
  Method = M->Str;
  Pc = static_cast<uint32_t>(P->Num);
  if (const JsonValue *T = Access.field("task");
      T && T->K == JsonValue::String)
    Task = T->Str;
  if (const JsonValue *R = Access.field("record");
      R && R->K == JsonValue::Number)
    Record = static_cast<uint32_t>(R->Num);
  return Status::success();
}

/// Reads one filter counter, tolerating its absence.
void readCounter(const JsonValue &Filters, const char *Name,
                 uint64_t &Out) {
  if (const JsonValue *V = Filters.field(Name);
      V && V->K == JsonValue::Number)
    Out = static_cast<uint64_t>(V->Num);
}

} // namespace

Status cafa::parseRaceReportJson(const std::string &Json,
                                 RaceDocument &Out) {
  Out = RaceDocument();
  JsonValue Root;
  if (Status S = JsonReader(Json).parse(Root); !S.ok())
    return S;
  if (Root.K != JsonValue::Object)
    return Status::error("report JSON is not an object");

  RaceDocument Doc;
  if (const JsonValue *Partial = Root.field("partial");
      Partial && Partial->K == JsonValue::Bool)
    Doc.Partial = Partial->B;
  if (const JsonValue *Cause = Root.field("partialCause");
      Cause && Cause->K == JsonValue::String)
    Doc.PartialCause = Cause->Str;
  if (const JsonValue *Detail = Root.field("partialDetail");
      Detail && Detail->K == JsonValue::String)
    Doc.PartialDetail = Detail->Str;
  if (const JsonValue *Filters = Root.field("filters");
      Filters && Filters->K == JsonValue::Object) {
    readCounter(*Filters, "candidates", Doc.Filters.CandidatePairs);
    readCounter(*Filters, "orderedByHb", Doc.Filters.OrderedByHb);
    readCounter(*Filters, "sameTask", Doc.Filters.SameTask);
    readCounter(*Filters, "lockset", Doc.Filters.LocksetProtected);
    readCounter(*Filters, "ifGuard", Doc.Filters.IfGuardFiltered);
    readCounter(*Filters, "intraEventAlloc", Doc.Filters.IntraEventAlloc);
  }

  const JsonValue *Races = Root.field("races");
  if (!Races || Races->K != JsonValue::Array)
    return Status::error("report JSON has no races array");
  for (const JsonValue &Entry : Races->Items) {
    if (Entry.K != JsonValue::Object)
      return Status::error("race entry is not an object");
    const JsonValue *Use = Entry.field("use");
    const JsonValue *Free = Entry.field("free");
    if (!Use || !Free)
      return Status::error("race entry missing use/free");
    RaceRecord Race;
    if (Status S = readAccess(*Use, Race.UseMethod, Race.UsePc,
                              Race.UseTask, Race.UseRecord);
        !S.ok())
      return S;
    if (Status S = readAccess(*Free, Race.FreeMethod, Race.FreePc,
                              Race.FreeTask, Race.FreeRecord);
        !S.ok())
      return S;
    if (const JsonValue *Cat = Entry.field("category");
        Cat && Cat->K == JsonValue::String)
      Race.Category = Cat->Str;
    if (const JsonValue *Dyn = Entry.field("dynamicCount");
        Dyn && Dyn->K == JsonValue::Number)
      Race.DynamicCount = static_cast<uint32_t>(Dyn->Num);
    if (const JsonValue *Prov = Entry.field("provisional");
        Prov && Prov->K == JsonValue::Bool && Prov->B)
      Doc.Provisional = true;
    if (const JsonValue *Verdict = Entry.field("confirm");
        Verdict && Verdict->K == JsonValue::String)
      // Unknown verdict names stay None: a newer worker's verdict must
      // not fail an older supervisor's parse.
      confirmVerdictFromName(Verdict->Str, Race.Verdict);
    Doc.Races.push_back(std::move(Race));
  }
  Out = std::move(Doc);
  return Status::success();
}

std::string cafa::renderTable1Json(const std::vector<Table1Row> &Rows) {
  std::ostringstream OS;
  OS << "[";
  bool First = true;
  for (const Table1Row &Row : Rows) {
    OS << (First ? "\n" : ",\n");
    First = false;
    OS << formatString(
        "  {\"app\": \"%s\", \"events\": %llu, \"reported\": %llu, "
        "\"trueA\": %llu, \"trueB\": %llu, \"trueC\": %llu, "
        "\"fpI\": %llu, \"fpII\": %llu, \"fpIII\": %llu, "
        "\"unexpected\": %llu, \"missed\": %llu}",
        jsonEscape(Row.App).c_str(),
        static_cast<unsigned long long>(Row.Events),
        static_cast<unsigned long long>(Row.Reported),
        static_cast<unsigned long long>(Row.TrueA),
        static_cast<unsigned long long>(Row.TrueB),
        static_cast<unsigned long long>(Row.TrueC),
        static_cast<unsigned long long>(Row.FpI),
        static_cast<unsigned long long>(Row.FpII),
        static_cast<unsigned long long>(Row.FpIII),
        static_cast<unsigned long long>(Row.Unexpected),
        static_cast<unsigned long long>(Row.Missed));
  }
  OS << "\n]\n";
  return OS.str();
}
