//===- perfbench/src/Recorder.cpp - Pauses, spans and layer totals --------===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//

#include "Recorder.h"

#include <cinttypes>
#include <cstdio>

using namespace cgc;

namespace perfbench {

namespace {

constexpr size_t HistogramBuckets = 8192;

const char *callName(CallKind Kind) {
  switch (Kind) {
  case CallKind::Alloc:
    return "cgc_malloc";
  case CallKind::Free:
    return "cgc_free";
  case CallKind::Collect:
    return "collect";
  case CallKind::BuildLists:
    return "ProgramT::buildLists";
  }
  return "?";
}

const char *callCategory(CallKind Kind) {
  return Kind == CallKind::Collect ? "core" : "heap";
}

const char *phaseCategory(GcPhase Phase) {
  switch (Phase) {
  case GcPhase::RootScan:
    return "roots";
  case GcPhase::BlacklistPromote:
    return "blacklist";
  default:
    return "core";
  }
}

} // namespace

void Recorder::beginIteration(bool Traced) {
  InIteration = true;
  Tracing = Traced;
  Current = LayerTotals();
  IterationPauseNs = 0;
  CollectionNsInCalls = 0;
  CallNsTotal = 0;
  IterationBegin = nowNs();
  if (Tracing)
    IterationSpan = openSpan("iteration", "bench", IterationBegin);
}

Iteration Recorder::endIteration(uint64_t Ops) {
  uint64_t End = nowNs();
  Iteration It;
  It.WallNs = End - IterationBegin;
  It.Ops = Ops;
  It.PauseNs = IterationPauseNs;
  It.Traced = Tracing;
  if (Tracing) {
    closeSpan(IterationSpan, End);
    IterationSpan = -1;
    uint64_t LooseCollections = IterationPauseNs - CollectionNsInCalls;
    uint64_t Covered = CallNsTotal + LooseCollections;
    Current.OutsideLibraryNs = It.WallNs > Covered ? It.WallNs - Covered : 0;
    if (Watched)
      Current.BlacklistedPages = Watched->blacklistedPageCount();
    It.Layers = Current;
  }
  sampleCommitted();
  InIteration = false;
  Tracing = false;
  ++IterationIndex;
  return It;
}

Recorder::CallStart Recorder::enterCall() {
  return {nowNs(), CollectionNsTotal, Spans.size()};
}

void Recorder::exitCall(CallKind Kind, const CallStart &Start) {
  uint64_t End = nowNs();
  uint64_t Duration = End - Start.BeginNs;
  uint64_t Nested = CollectionNsTotal - Start.CollectionNs;
  uint64_t Self = Duration > Nested ? Duration - Nested : 0;
  CallNsTotal += Duration;
  CollectionNsInCalls += Nested;
  switch (Kind) {
  case CallKind::Alloc:
    ++Current.AllocCalls;
    Current.AllocSelfNs += Self;
    if (AllocHistogram.empty())
      AllocHistogram.assign(HistogramBuckets, 0);
    ++AllocHistogram[Self < HistogramBuckets ? Self : HistogramBuckets - 1];
    break;
  case CallKind::BuildLists:
    Current.AllocSelfNs += Self;
    break;
  case CallKind::Free:
    ++Current.FreeCalls;
    Current.FreeSelfNs += Self;
    break;
  case CallKind::Collect:
    break;
  }

  // Keep the call's span when it caused a collection (its collection
  // spans were appended since the call began) or when it is sampled.
  bool Caused = Spans.size() > Start.FirstSpan;
  if (!Caused && CallsSeen++ % SampleEvery != 0)
    return;
  if (Spans.size() >= MaxSpans)
    return;
  int32_t Index = static_cast<int32_t>(Spans.size());
  Spans.push_back({callName(Kind), callCategory(Kind), Start.BeginNs, End,
                   IterationSpan, IterationIndex});
  for (size_t I = Start.FirstSpan; I != static_cast<size_t>(Index); ++I)
    if (Spans[I].Parent == IterationSpan)
      Spans[I].Parent = Index;
}

int32_t Recorder::openSpan(const char *Name, const char *Category,
                           uint64_t Now) {
  if (Spans.size() >= MaxSpans)
    return -1;
  int32_t Parent = OpenSpans.empty() ? -1 : OpenSpans.back();
  int32_t Index = static_cast<int32_t>(Spans.size());
  Spans.push_back({Name, Category, Now, Now, Parent, IterationIndex});
  OpenSpans.push_back(Index);
  return Index;
}

void Recorder::closeSpan(int32_t Index, uint64_t Now) {
  if (Index < 0)
    return;
  Spans[Index].EndNs = Now;
  if (!OpenSpans.empty() && OpenSpans.back() == Index)
    OpenSpans.pop_back();
}

void Recorder::sampleCommitted() {
  if (Watched && Watched->committedHeapBytes() > PeakCommitted)
    PeakCommitted = Watched->committedHeapBytes();
}

void Recorder::onCollectionBegin(uint64_t, const char *) {
  if (InIteration)
    sampleCommitted();
  CollectionBegin = nowNs();
  if (Tracing)
    CollectionSpan = openSpan("collection", "core", CollectionBegin);
}

void Recorder::onCollectionEnd(uint64_t, const CollectionStats &Stats) {
  uint64_t End = nowNs();
  // The stop-the-world handshake runs before onCollectionBegin; it is
  // part of the pause the mutator sees.
  uint64_t Pause = End - CollectionBegin + Stats.HandshakeNanos;
  CollectionNsTotal += Pause;
  if (ExpectedMarked && Stats.ObjectsMarked != ExpectedMarked)
    ++MarkMismatches;
  if (!InIteration)
    return;
  sampleCommitted();
  Pauses.push_back(Pause);
  IterationPauseNs += Pause;
  if (!Tracing)
    return;
  closeSpan(CollectionSpan, End);
  CollectionSpan = -1;
  Current.PauseNs += Pause;
  Current.RootBytesScanned += Stats.RootBytesScanned;
  Current.HeapWordsScanned += Stats.HeapWordsScanned;
  Current.ObjectsSweptFree += Stats.ObjectsSweptFree;
  Current.NearMisses += Stats.NearMisses;
  Current.HandshakeNs += Stats.HandshakeNanos;
  ++Current.Collections;
}

void Recorder::onPhaseBegin(GcPhase Phase) {
  if (Tracing)
    PhaseSpan = openSpan(gcPhaseName(Phase), phaseCategory(Phase), nowNs());
}

void Recorder::onPhaseEnd(GcPhase Phase, uint64_t Nanos,
                          const CollectionStats &) {
  if (!Tracing)
    return;
  closeSpan(PhaseSpan, nowNs());
  PhaseSpan = -1;
  Current.PhaseNs[static_cast<unsigned>(Phase)] += Nanos;
}

uint64_t Recorder::allocSelfNsMedian() const {
  uint64_t Total = 0;
  for (uint64_t Count : AllocHistogram)
    Total += Count;
  uint64_t Seen = 0;
  for (size_t Ns = 0; Ns != AllocHistogram.size(); ++Ns) {
    Seen += AllocHistogram[Ns];
    if (2 * Seen >= Total && Total != 0)
      return Ns;
  }
  return 0;
}

bool Recorder::writeChromeTrace(const std::string &Path) const {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  uint64_t Origin = Spans.empty() ? 0 : Spans.front().BeginNs;
  std::fprintf(Out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(Out,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%" PRId32 ",\"iteration\":%" PRIu32 "}}\n",
                 I ? "," : "", S.Name, S.Category,
                 static_cast<double>(S.BeginNs - Origin) / 1e3,
                 static_cast<double>(S.EndNs - S.BeginNs) / 1e3, I, S.Parent,
                 S.Iteration);
  }
  std::fprintf(Out, "]}\n");
  return std::fclose(Out) == 0;
}

} // namespace perfbench
