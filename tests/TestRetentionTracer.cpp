//===- tests/TestRetentionTracer.cpp - Retention tracing tests ------------===//

#include "core/RetentionTracer.h"
#include "structures/FalseRef.h"
#include <cstring>
#include <gtest/gtest.h>

using namespace cgc;

namespace {

GcConfig tracerConfig() {
  GcConfig Config;
  Config.WindowBytes = uint64_t(256) << 20;
  Config.Placement = HeapPlacement::Custom;
  Config.CustomHeapBaseOffset = 16 << 20;
  Config.MaxHeapBytes = 32 << 20;
  Config.GcAtStartup = false;
  Config.MinHeapBytesBeforeGc = ~uint64_t(0);
  return Config;
}

struct Node {
  Node *Next;
  uint64_t Pad;
};

} // namespace

TEST(RetentionTracer, DirectRootReference) {
  Collector GC(tracerConfig());
  Node *Obj = static_cast<Node *>(GC.allocate(sizeof(Node)));
  uint64_t Root = reinterpret_cast<uint64_t>(Obj);
  GC.addRootRange(&Root, &Root + 1, RootEncoding::Native64,
                  RootSource::StaticData, "my-global");
  RetentionTracer Tracer(GC);
  RetentionTrace Trace = Tracer.explain(Obj);
  ASSERT_TRUE(Trace.Reached);
  EXPECT_EQ(Trace.RootLabel, "my-global");
  EXPECT_EQ(Trace.Source, RootSource::StaticData);
  EXPECT_EQ(Trace.RootWord, &Root);
  ASSERT_EQ(Trace.Chain.size(), 1u);
  EXPECT_EQ(Trace.Chain[0].ObjectBase, GC.windowOffsetOf(Obj));
}

// The tracer scans the root set a census does, the collector's own
// machine-stack and register ranges included: an object held only by a
// local is reached exactly when measureLiveness marks it live.
TEST(RetentionTracer, ReachesObjectsHeldOnlyByTheMachineStack) {
  Collector GC(tracerConfig());
  GC.enableMachineStackScanning();
  Node *Obj = static_cast<Node *>(GC.allocate(sizeof(Node)));
  // Keep Obj live, and nowhere but this frame, across both scans.
  __asm__ volatile("" ::"r"(Obj) : "memory");
  GC.measureLiveness();
  ASSERT_TRUE(GC.wasMarkedLive(Obj));
  RetentionTracer Tracer(GC);
  RetentionTrace Trace = Tracer.explain(Obj);
  EXPECT_TRUE(Trace.Reached);
  EXPECT_TRUE(Trace.Source == RootSource::Stack ||
              Trace.Source == RootSource::Registers)
      << Trace.describe();
  EXPECT_EQ(GC.roots().rangeCount(), 0u)
      << "the stack and register ranges outlive the trace";
  __asm__ volatile("" ::"r"(Obj) : "memory");
}

// A tracer called back from inside a collection (as the sentinel's
// incident sampling is) scans through that collection's stopped world,
// both while the phases run with the world's ranges added and after.
TEST(RetentionTracer, ReachesStackRootsFromInsideACollection) {
  Collector GC(tracerConfig());
  GC.enableMachineStackScanning();
  Node *Obj = static_cast<Node *>(GC.allocate(sizeof(Node)));
  __asm__ volatile("" ::"r"(Obj) : "memory");
  struct TraceInside : GcObserver {
    Collector &GC;
    void *Target;
    bool ReachedInPhase = false;
    bool ReachedAtEnd = false;
    size_t RangesInPhase = 0;
    TraceInside(Collector &GC, void *Target) : GC(GC), Target(Target) {}
    void onPhaseEnd(GcPhase Phase, uint64_t, const CollectionStats &) override {
      if (Phase != GcPhase::RootScan)
        return;
      ReachedInPhase = RetentionTracer(GC).explain(Target).Reached;
      RangesInPhase = GC.roots().rangeCount();
    }
    void onCollectionEnd(uint64_t, const CollectionStats &) override {
      ReachedAtEnd = RetentionTracer(GC).explain(Target).Reached;
    }
  } Observer(GC, Obj);
  GC.addObserver(&Observer);
  GC.collect();
  EXPECT_TRUE(GC.wasMarkedLive(Obj));
  EXPECT_TRUE(Observer.ReachedInPhase);
  EXPECT_EQ(Observer.RangesInPhase, 2u)
      << "the nested trace left the collection's own ranges in place";
  EXPECT_TRUE(Observer.ReachedAtEnd);
  EXPECT_EQ(GC.roots().rangeCount(), 0u);
  __asm__ volatile("" ::"r"(Obj) : "memory");
}

TEST(RetentionTracer, ChainThroughHeap) {
  Collector GC(tracerConfig());
  Node *C = static_cast<Node *>(GC.allocate(sizeof(Node)));
  Node *B = static_cast<Node *>(GC.allocate(sizeof(Node)));
  Node *A = static_cast<Node *>(GC.allocate(sizeof(Node)));
  A->Next = B;
  B->Next = C;
  uint64_t Root = reinterpret_cast<uint64_t>(A);
  GC.addRootRange(&Root, &Root + 1, RootEncoding::Native64,
                  RootSource::Client, "head");
  RetentionTracer Tracer(GC);
  RetentionTrace Trace = Tracer.explain(C);
  ASSERT_TRUE(Trace.Reached);
  ASSERT_EQ(Trace.Chain.size(), 3u) << Trace.describe();
  EXPECT_EQ(Trace.Chain[0].ObjectBase, GC.windowOffsetOf(A));
  EXPECT_EQ(Trace.Chain[1].ObjectBase, GC.windowOffsetOf(B));
  EXPECT_EQ(Trace.Chain[2].ObjectBase, GC.windowOffsetOf(C));
}

TEST(RetentionTracer, ShortestChainReported) {
  Collector GC(tracerConfig());
  // Two paths to Target: direct root, and via a long chain.  BFS must
  // report the one-hop path.
  Node *Target = static_cast<Node *>(GC.allocate(sizeof(Node)));
  Node *Chain = Target;
  for (int I = 0; I != 10; ++I) {
    Node *N = static_cast<Node *>(GC.allocate(sizeof(Node)));
    N->Next = Chain;
    Chain = N;
  }
  uint64_t Roots[2] = {reinterpret_cast<uint64_t>(Chain),
                       reinterpret_cast<uint64_t>(Target)};
  GC.addRootRange(Roots, Roots + 2, RootEncoding::Native64,
                  RootSource::Client, "roots");
  RetentionTracer Tracer(GC);
  RetentionTrace Trace = Tracer.explain(Target);
  ASSERT_TRUE(Trace.Reached);
  EXPECT_EQ(Trace.Chain.size(), 1u);
}

TEST(RetentionTracer, UnreachableReportsNotReached) {
  Collector GC(tracerConfig());
  Node *Obj = static_cast<Node *>(GC.allocate(sizeof(Node)));
  RetentionTracer Tracer(GC);
  RetentionTrace Trace = Tracer.explain(Obj);
  EXPECT_FALSE(Trace.Reached);
  EXPECT_EQ(Trace.describe(), "(not reachable from the current roots)");
}

TEST(RetentionTracer, IdentifiesFalseReferenceSource) {
  // The paper's debugging scenario: a list is mysteriously retained;
  // the tracer points at the static integer table.
  Collector GC(tracerConfig());
  Node *Head = nullptr;
  for (int I = 0; I != 50; ++I) {
    Node *N = static_cast<Node *>(GC.allocate(sizeof(Node)));
    N->Next = Head;
    Head = N;
  }
  // An "integer" in static data that happens to alias a middle node.
  Node *Middle = Head;
  for (int I = 0; I != 25; ++I)
    Middle = Middle->Next;
  uint64_t FakeInteger = reinterpret_cast<uint64_t>(Middle);
  GC.addRootRange(&FakeInteger, &FakeInteger + 1, RootEncoding::Native64,
                  RootSource::StaticData, "base-conversion-tables");
  RetentionTracer Tracer(GC);
  // The last node of the list is retained only through the fake int.
  Node *Tail = Middle;
  while (Tail->Next)
    Tail = Tail->Next;
  RetentionTrace Trace = Tracer.explain(Tail);
  ASSERT_TRUE(Trace.Reached);
  EXPECT_EQ(Trace.RootLabel, "base-conversion-tables");
  EXPECT_EQ(Trace.Source, RootSource::StaticData);
  // Middle is 25 hops in; Middle..Tail inclusive is 25 nodes.
  EXPECT_EQ(Trace.Chain.size(), 25u);
  // The head half of the list is NOT reachable.
  EXPECT_FALSE(Tracer.explain(Head).Reached);
}

TEST(RetentionTracer, UncollectableRootChain) {
  Collector GC(tracerConfig());
  auto *Anchor = static_cast<Node *>(
      GC.allocate(sizeof(Node), ObjectKind::Uncollectable));
  Node *Child = static_cast<Node *>(GC.allocate(sizeof(Node)));
  Anchor->Next = Child;
  RetentionTracer Tracer(GC);
  RetentionTrace Trace = Tracer.explain(Child);
  ASSERT_TRUE(Trace.Reached);
  EXPECT_EQ(Trace.RootLabel, "(uncollectable object)");
  EXPECT_EQ(Trace.Chain.size(), 2u);
  GC.deallocate(Anchor);
}

TEST(RetentionTracer, RespectsTypedLayouts) {
  Collector GC(tracerConfig());
  LayoutId Layout = GC.registerObjectLayout(
      {true, false}, 2 * sizeof(uint64_t));
  auto *Holder = static_cast<uint64_t *>(GC.allocateTyped(Layout));
  Node *InPointerWord = static_cast<Node *>(GC.allocate(sizeof(Node)));
  Node *InDataWord = static_cast<Node *>(GC.allocate(sizeof(Node)));
  Holder[0] = reinterpret_cast<uint64_t>(InPointerWord);
  Holder[1] = reinterpret_cast<uint64_t>(InDataWord);
  uint64_t Root = reinterpret_cast<uint64_t>(Holder);
  GC.addRootRange(&Root, &Root + 1, RootEncoding::Native64,
                  RootSource::Client, "typed-root");
  RetentionTracer Tracer(GC);
  EXPECT_TRUE(Tracer.explain(InPointerWord).Reached);
  EXPECT_FALSE(Tracer.explain(InDataWord).Reached)
      << "tracer must honor the layout, like the marker";
}

TEST(RetentionTracer, DoesNotDisturbMarkBits) {
  Collector GC(tracerConfig());
  Node *Obj = static_cast<Node *>(GC.allocate(sizeof(Node)));
  uint64_t Root = reinterpret_cast<uint64_t>(Obj);
  GC.addRootRange(&Root, &Root + 1, RootEncoding::Native64,
                  RootSource::Client, "root");
  GC.collect();
  EXPECT_TRUE(GC.wasMarkedLive(Obj));
  RetentionTracer Tracer(GC);
  (void)Tracer.explain(Obj);
  EXPECT_TRUE(GC.wasMarkedLive(Obj)) << "tracing must not clear marks";
}

namespace {

// One root word planted at a byte offset of a root buffer points at
// object A; A holds a pointer to B at byte offset 4, which only a
// 4-byte heap stride reads.  Expect* say what the marker must find.
struct DecoderCase {
  const char *Name;
  RootEncoding Encoding;
  unsigned RootAlignment;
  unsigned RootOffset;
  unsigned HeapAlignment;
  bool ExpectA;
  bool ExpectB;
};

void PrintTo(const DecoderCase &Case, std::ostream *OS) { *OS << Case.Name; }

class TracerMarkerAgreement : public ::testing::TestWithParam<DecoderCase> {
};

} // namespace

// The tracer and the marker read words through the same decoder, so for
// every encoding and stride the tracer reaches exactly what the marker
// marks live.
TEST_P(TracerMarkerAgreement, ReachedEqualsMarkedLive) {
  const DecoderCase &Case = GetParam();
  GcConfig Config = tracerConfig();
  Config.RootScanAlignment = Case.RootAlignment;
  Config.HeapScanAlignment = Case.HeapAlignment;
  Collector GC(Config);
  void *A = GC.allocate(32);
  void *B = GC.allocate(32);
  void *C = GC.allocate(32); // Referenced by nothing.
  uint64_t BWord = reinterpret_cast<uint64_t>(B);
  std::memcpy(static_cast<unsigned char *>(A) + 4, &BWord, sizeof(BWord));

  alignas(8) unsigned char Roots[24] = {};
  if (Case.Encoding == RootEncoding::Native64) {
    uint64_t Word = reinterpret_cast<uint64_t>(A);
    std::memcpy(Roots + Case.RootOffset, &Word, sizeof(Word));
  } else {
    auto Word = static_cast<uint32_t>(GC.windowOffsetOf(A));
    bool BigEndian = Case.Encoding == RootEncoding::Window32BE;
    for (unsigned Byte = 0; Byte != 4; ++Byte)
      Roots[Case.RootOffset + Byte] = static_cast<unsigned char>(
          Word >> (8 * (BigEndian ? 3 - Byte : Byte)));
  }
  GC.addRootRange(Roots, Roots + sizeof(Roots), Case.Encoding,
                  RootSource::StaticData, "decoder-roots");

  GC.measureLiveness();
  RetentionTracer Tracer(GC);
  for (void *P : {A, B, C})
    EXPECT_EQ(Tracer.explain(P).Reached, GC.wasMarkedLive(P));
  EXPECT_EQ(GC.wasMarkedLive(A), Case.ExpectA);
  EXPECT_EQ(GC.wasMarkedLive(B), Case.ExpectB);
  EXPECT_FALSE(GC.wasMarkedLive(C));
}

INSTANTIATE_TEST_SUITE_P(
    Encodings, TracerMarkerAgreement,
    ::testing::Values(
        DecoderCase{"Native64_Align1_Off3", RootEncoding::Native64, 1, 3, 8,
                    true, false},
        DecoderCase{"Native64_Align4_Off4", RootEncoding::Native64, 4, 4, 8,
                    true, false},
        DecoderCase{"Native64_Align8_Off4", RootEncoding::Native64, 8, 4, 8,
                    false, false},
        DecoderCase{"Window32LE_Align1_Off3", RootEncoding::Window32LE, 1, 3,
                    8, true, false},
        DecoderCase{"Window32LE_Align2_Off3", RootEncoding::Window32LE, 2, 3,
                    8, false, false},
        DecoderCase{"Window32LE_Align2_Off6", RootEncoding::Window32LE, 2, 6,
                    8, true, false},
        DecoderCase{"Window32LE_Align4_Off6", RootEncoding::Window32LE, 4, 6,
                    8, false, false},
        DecoderCase{"Window32BE_Align1_Off5", RootEncoding::Window32BE, 1, 5,
                    8, true, false},
        DecoderCase{"Window32BE_Align2_Off5", RootEncoding::Window32BE, 2, 5,
                    8, false, false},
        DecoderCase{"Window32BE_Align2_Off10", RootEncoding::Window32BE, 2,
                    10, 8, true, false},
        DecoderCase{"Window32BE_Align4_Off10", RootEncoding::Window32BE, 4,
                    10, 8, false, false},
        DecoderCase{"Window32BE_Align4_Off12", RootEncoding::Window32BE, 4,
                    12, 8, true, false},
        DecoderCase{"HeapStride4_PointerAtOffset4", RootEncoding::Native64, 8,
                    0, 4, true, true},
        DecoderCase{"HeapStride8_PointerAtOffset4", RootEncoding::Native64, 8,
                    0, 8, true, false}),
    [](const ::testing::TestParamInfo<DecoderCase> &Info) {
      return std::string(Info.param.Name);
    });
