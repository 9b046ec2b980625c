//===- hb/DotExport.cpp - Graphviz rendering of the HB relation --------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "hb/DotExport.h"

#include "support/BitVec.h"
#include "support/Format.h"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <vector>

using namespace cafa;

namespace {

/// Escapes a label for DOT.
std::string dotEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out.push_back('\\');
    Out.push_back(C);
  }
  return Out;
}

} // namespace

std::string cafa::exportHbGraphDot(const HbIndex &Hb, const Trace &T) {
  const HbGraph &G = Hb.graph();
  std::ostringstream OS;
  OS << "digraph cafa_hb {\n"
     << "  rankdir=TB;\n  node [shape=box, fontsize=10];\n";

  // One cluster per task that has nodes.
  for (uint32_t Task = 0, E = static_cast<uint32_t>(T.numTasks());
       Task != E; ++Task) {
    std::span<const NodeId> Nodes = G.taskNodes(TaskId(Task));
    if (Nodes.empty())
      continue;
    OS << formatString("  subgraph cluster_t%u {\n", Task)
       << formatString("    label=\"%s\";\n",
                       dotEscape(T.taskName(TaskId(Task))).c_str());
    for (NodeId Node : Nodes) {
      const TraceRecord &Rec = T.record(G.recordOfNode(Node));
      OS << formatString("    n%u [label=\"%s\"];\n", Node.value(),
                         opKindName(Rec.Kind));
    }
    OS << "  }\n";
  }

  for (uint32_t N = 0, E = static_cast<uint32_t>(G.numNodes()); N != E;
       ++N) {
    for (uint32_t Succ : G.successors(NodeId(N))) {
      bool SameTask =
          G.taskOfNode(NodeId(N)) == G.taskOfNode(NodeId(Succ));
      OS << formatString("  n%u -> n%u%s;\n", N, Succ,
                         SameTask ? " [style=dotted]" : "");
    }
  }
  OS << "}\n";
  return OS.str();
}

std::string cafa::exportTaskOrderDot(const HbIndex &Hb, const Trace &T) {
  const HbGraph &G = Hb.graph();
  // Tasks that actually began, in trace order.
  std::vector<TaskId> Tasks;
  for (uint32_t I = 0, E = static_cast<uint32_t>(T.numTasks()); I != E;
       ++I)
    if (G.beginNode(TaskId(I)).isValid())
      Tasks.push_back(TaskId(I));
  const size_t N = Tasks.size();

  // Rank the tasks by begin node.  A task ordered before another ends
  // before the other begins, and every edge points to a larger node id,
  // so rank order is a topological order of the task order: a task is
  // only ever ordered before tasks that rank after it.
  std::vector<uint32_t> ByRank(N);
  std::iota(ByRank.begin(), ByRank.end(), 0u);
  std::sort(ByRank.begin(), ByRank.end(), [&](uint32_t A, uint32_t B) {
    return G.beginNode(Tasks[A]) < G.beginNode(Tasks[B]);
  });
  std::vector<uint32_t> RankOf(N);
  for (uint32_t R = 0; R != N; ++R)
    RankOf[ByRank[R]] = R;

  // Later[r]: the ranks of the tasks the rank-r task is ordered before.
  std::vector<BitVec> Later(N, BitVec(N));
  for (size_t A = 0; A != N; ++A)
    for (size_t B = A + 1; B != N; ++B)
      if (Hb.taskOrdered(Tasks[ByRank[A]], Tasks[ByRank[B]]))
        Later[A].set(B);

  std::ostringstream OS;
  OS << "digraph cafa_task_order {\n"
     << "  rankdir=LR;\n  node [shape=ellipse, fontsize=10];\n";
  for (size_t A = 0; A != N; ++A) {
    const TaskInfo &Info = T.taskInfo(Tasks[A]);
    const char *Shape =
        Info.Kind == TaskKind::Event ? "box" : "ellipse";
    OS << formatString(
        "  t%u [label=\"%s\", shape=%s%s];\n", Tasks[A].value(),
        dotEscape(T.taskName(Tasks[A])).c_str(), Shape,
        Info.External ? ", style=filled, fillcolor=lightgrey" : "");
  }

  // Transitive reduction: an edge a->b is redundant if a->m->b for some
  // m.  Walking a's successors in rank order, b is redundant exactly
  // when a successor kept before it is ordered before it: a redundant m
  // is itself ordered after a kept one, which then orders b too.
  BitVec Covered(N);
  std::vector<uint32_t> Kept;
  for (size_t A = 0; A != N; ++A) {
    Covered.clear();
    Kept.clear();
    Later[RankOf[A]].forEachSetBit([&](size_t B) {
      if (Covered.test(B))
        return;
      Kept.push_back(ByRank[B]);
      Covered.orWithFrom(Later[B], B);
    });
    std::sort(Kept.begin(), Kept.end());
    for (uint32_t B : Kept)
      OS << formatString("  t%u -> t%u;\n", Tasks[A].value(),
                         Tasks[B].value());
  }
  OS << "}\n";
  return OS.str();
}
