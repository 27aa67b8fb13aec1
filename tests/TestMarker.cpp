//===- tests/TestMarker.cpp - Marker and candidate-resolution tests -------===//

#include "core/Collector.h"
#include "structures/FalseRef.h"
#include "support/Random.h"
#include <bit>
#include <cstring>
#include <gtest/gtest.h>
#include <utility>
#include <vector>

using namespace cgc;

namespace {

GcConfig markerConfig() {
  GcConfig Config;
  Config.WindowBytes = uint64_t(256) << 20;
  Config.Placement = HeapPlacement::Custom;
  Config.CustomHeapBaseOffset = 16 << 20;
  Config.MaxHeapBytes = 32 << 20;
  Config.GcAtStartup = false;
  Config.MinHeapBytesBeforeGc = ~uint64_t(0);
  return Config;
}

} // namespace

//===----------------------------------------------------------------------===//
// resolveCandidate
//===----------------------------------------------------------------------===//

TEST(Marker, ResolveCandidateSmallObjects) {
  Collector GC(markerConfig());
  auto *A = static_cast<char *>(GC.allocate(32));
  WindowOffset Base = GC.windowOffsetOf(A);
  Marker &M = GC.marker();

  // Base and interior both resolve under the default All policy.
  EXPECT_TRUE(M.resolveCandidate(Base).valid());
  EXPECT_TRUE(M.resolveCandidate(Base + 31).valid());
  // One past the end belongs to the next slot (not yet allocated, but
  // still a "valid object address" in the collector's eyes — the
  // paper's collectors could not distinguish free slots).
  ObjectRef Next = M.resolveCandidate(Base + 32);
  EXPECT_TRUE(Next.valid());
  EXPECT_NE(Next.Slot, M.resolveCandidate(Base).Slot);
  // The page-header gap before the first slot resolves to nothing.
  WindowOffset PageStart = Base & ~WindowOffset(PageSize - 1);
  EXPECT_FALSE(M.resolveCandidate(PageStart).valid());
  // Untouched heap pages resolve to nothing.
  EXPECT_FALSE(M.resolveCandidate(Base + 64 * PageSize).valid());
}

TEST(Marker, NearMissCountingAndBlacklistFeed) {
  Collector GC(markerConfig());
  (void)GC.allocate(8); // Commit some heap.
  // Three candidates: valid, in-arena-invalid, outside-arena.
  uint64_t Roots[3];
  Roots[0] = reinterpret_cast<uint64_t>(GC.allocate(8));
  Roots[1] = GC.arena().base() + (16 << 20) + 100 * PageSize; // Unused.
  Roots[2] = GC.arena().base() + (200 << 20); // Outside the arena.
  GC.addRootRange(Roots, Roots + 3, RootEncoding::Native64,
                  RootSource::Client, "candidates");
  CollectionStats Cycle = GC.collect();
  EXPECT_EQ(Cycle.NearMisses, 1u)
      << "only the in-arena invalid candidate is a near miss";
  EXPECT_EQ(GC.blacklistStats().CandidatesNoted, 1u);
  EXPECT_TRUE(GC.blacklist().isBlacklisted(
      pageOfOffset((16 << 20) + 100 * PageSize)));
  EXPECT_FALSE(GC.blacklist().isBlacklisted(
      pageOfOffset(GC.windowOffsetOf(
          reinterpret_cast<void *>(Roots[0])))))
      << "valid pointers are never blacklisted (Figure 2)";
}

TEST(Marker, DeepStructureDoesNotOverflowStack) {
  // A 200k-deep linked list must mark iteratively (explicit mark
  // stack), not by recursion.
  Collector GC(markerConfig());
  struct Node {
    Node *Next;
  };
  uint64_t Root = 0;
  GC.addRootRange(&Root, &Root + 1, RootEncoding::Native64,
                  RootSource::Client, "root");
  Node *Head = nullptr;
  for (int I = 0; I != 200000; ++I) {
    auto *N = static_cast<Node *>(GC.allocate(sizeof(Node)));
    N->Next = Head;
    Head = N;
  }
  Root = reinterpret_cast<uint64_t>(Head);
  EXPECT_EQ(GC.collect().ObjectsLive, 200000u);
}

TEST(Marker, WideFanoutMarksEverything) {
  Collector GC(markerConfig());
  // One array object pointing to 10k leaves.
  constexpr int Leaves = 10000;
  auto **Array = static_cast<void **>(
      GC.allocate(Leaves * sizeof(void *)));
  for (int I = 0; I != Leaves; ++I)
    Array[I] = GC.allocate(16);
  uint64_t Root = reinterpret_cast<uint64_t>(Array);
  GC.addRootRange(&Root, &Root + 1, RootEncoding::Native64,
                  RootSource::Client, "root");
  EXPECT_EQ(GC.collect().ObjectsLive, 1u + Leaves);
}

TEST(Marker, SharedSubgraphMarkedOnce) {
  Collector GC(markerConfig());
  struct Node {
    Node *A;
    Node *B;
  };
  auto *Shared = static_cast<Node *>(GC.allocate(sizeof(Node)));
  auto *Left = static_cast<Node *>(GC.allocate(sizeof(Node)));
  auto *Right = static_cast<Node *>(GC.allocate(sizeof(Node)));
  Left->A = Shared;
  Right->A = Shared;
  uint64_t Roots[2] = {reinterpret_cast<uint64_t>(Left),
                       reinterpret_cast<uint64_t>(Right)};
  GC.addRootRange(Roots, Roots + 2, RootEncoding::Native64,
                  RootSource::Client, "roots");
  CollectionStats Cycle = GC.collect();
  EXPECT_EQ(Cycle.ObjectsLive, 3u);
  EXPECT_EQ(Cycle.ObjectsMarked, 3u) << "no double counting";
}

TEST(Marker, HeapScanAlignmentControlsInHeapPointers) {
  // A pointer stored at a non-word offset inside a heap object is seen
  // only when HeapScanAlignment is fine enough.
  for (unsigned Alignment : {8u, 4u}) {
    GcConfig Config = markerConfig();
    Config.HeapScanAlignment = Alignment;
    Collector GC(Config);
    auto *Holder = static_cast<char *>(GC.allocate(64));
    void *Target = GC.allocate(16);
    std::memcpy(Holder + 12, &Target, sizeof(Target)); // 4-aligned.
    uint64_t Root = reinterpret_cast<uint64_t>(Holder);
    GC.addRootRange(&Root, &Root + 1, RootEncoding::Native64,
                    RootSource::Client, "root");
    CollectionStats Cycle = GC.collect();
    if (Alignment == 8)
      EXPECT_EQ(Cycle.ObjectsLive, 1u)
          << "word-aligned scan misses the 4-aligned pointer";
    else
      EXPECT_EQ(Cycle.ObjectsLive, 2u);
  }
}

TEST(Marker, PointerToLargeObjectInterior) {
  Collector GC(markerConfig());
  auto *Big = static_cast<char *>(GC.allocate(6 * PageSize));
  uint64_t Root = reinterpret_cast<uint64_t>(Big + 5 * PageSize + 123);
  GC.addRootRange(&Root, &Root + 1, RootEncoding::Native64,
                  RootSource::Client, "root");
  CollectionStats Cycle = GC.collect();
  EXPECT_EQ(Cycle.BytesLive, 6 * PageSize)
      << "All-interior policy retains the large object from any page";
}

TEST(Marker, MarkFromCandidateResurrects) {
  Collector GC(markerConfig());
  struct Node {
    Node *Next;
  };
  auto *A = static_cast<Node *>(GC.allocate(sizeof(Node)));
  A->Next = static_cast<Node *>(GC.allocate(sizeof(Node)));
  WindowOffset Offset = GC.windowOffsetOf(A);
  // Nothing roots A; a plain mark pass leaves it unmarked...
  CollectionStats Stats = GC.measureLiveness();
  EXPECT_EQ(Stats.ObjectsMarked, 0u);
  // ...but marking from the candidate marks it and its subgraph.
  CollectionStats More;
  GC.marker().markFromCandidate(Offset, More);
  EXPECT_EQ(More.ObjectsMarked, 2u);
  EXPECT_TRUE(GC.wasMarkedLive(A));
}

TEST(Marker, RootSourceStatsTracked) {
  Collector GC(markerConfig());
  uint64_t StaticWord = 0, StackWord = 0;
  GC.addRootRange(&StaticWord, &StaticWord + 1, RootEncoding::Native64,
                  RootSource::StaticData, "s");
  GC.addRootRange(&StackWord, &StackWord + 1, RootEncoding::Native64,
                  RootSource::Stack, "k");
  CollectionStats Cycle = GC.collect();
  EXPECT_EQ(Cycle.RootBytesScanned, 16u);
  EXPECT_EQ(Cycle.RootCandidatesExamined, 2u);
}

//===----------------------------------------------------------------------===//
// Root decoder against a reference
//===----------------------------------------------------------------------===//

namespace {

using RootHit = std::pair<WindowOffset, const unsigned char *>;

size_t wordBytes(RootEncoding Encoding) {
  return Encoding == RootEncoding::Native64 ? 8 : 4;
}

bool storedBigEndian(RootEncoding Encoding) {
  return Encoding == RootEncoding::Window32BE ||
         (Encoding == RootEncoding::Native64 &&
          std::endian::native == std::endian::big);
}

/// Writes \p Value at \p At as \p Encoding stores a word, one byte at
/// a time.
void plantWord(unsigned char *At, RootEncoding Encoding, uint64_t Value) {
  size_t Bytes = wordBytes(Encoding);
  bool BigEndian = storedBigEndian(Encoding);
  for (size_t I = 0; I != Bytes; ++I)
    At[I] = static_cast<unsigned char>(
        Value >> (8 * (BigEndian ? Bytes - 1 - I : I)));
}

/// The decoder's contract, spelled out byte by byte: every word that
/// fits whole in [Begin, End) at multiples of \p Stride, assembled in
/// the encoding's byte order, is a hit when it lands in the window of
/// \p Size bytes at \p Lo (Native64) or is an offset below \p Size
/// (Window32).
std::vector<RootHit> referenceDecode(const unsigned char *Begin,
                                     const unsigned char *End,
                                     RootEncoding Encoding, unsigned Stride,
                                     uint64_t Lo, uint64_t Size,
                                     uint64_t &Examined) {
  std::vector<RootHit> Hits;
  size_t Bytes = wordBytes(Encoding);
  bool BigEndian = storedBigEndian(Encoding);
  Examined = 0;
  for (size_t At = 0; At + Bytes <= static_cast<size_t>(End - Begin);
       At += Stride) {
    ++Examined;
    uint64_t Value = 0;
    for (size_t I = 0; I != Bytes; ++I)
      Value |= uint64_t(Begin[At + I])
               << (8 * (BigEndian ? Bytes - 1 - I : I));
    if (Encoding == RootEncoding::Native64) {
      if (Value >= Lo && Value - Lo < Size)
        Hits.push_back({Value - Lo, Begin + At});
    } else if (Value < Size) {
      Hits.push_back({Value, Begin + At});
    }
  }
  return Hits;
}

} // namespace

// forEachRootCandidate against the byte-by-byte reference: every
// encoding, stride, span length 0..40 and begin misalignment 0..7, with
// hits planted at random byte offsets, at both edges of the window, and
// in a word that straddles End (which must not be read).
TEST(Marker, RootDecoderMatchesReference) {
  const RootEncoding Encodings[] = {RootEncoding::Native64,
                                    RootEncoding::Window32LE,
                                    RootEncoding::Window32BE};
  Rng R(0x5eed);
  for (unsigned Stride : {1u, 2u, 4u, 8u}) {
    GcConfig Config = markerConfig();
    Config.RootScanAlignment = Stride;
    Collector GC(Config);
    const Marker &M = GC.marker();
    const uint64_t Lo = GC.arena().base();
    const uint64_t Size = GC.arena().size();
    for (RootEncoding Encoding : Encodings) {
      const bool Native = Encoding == RootEncoding::Native64;
      const size_t Bytes = wordBytes(Encoding);
      // The window's edges from both sides, plus values inside it.
      std::vector<uint64_t> Edges =
          Native ? std::vector<uint64_t>{Lo - 1, Lo, Lo + Size - 1,
                                         Lo + Size, Lo + Size / 2}
                 : std::vector<uint64_t>{Size - 1, Size, 0, Size / 3,
                                         0xffffffffu};
      RootRange Range;
      Range.Encoding = Encoding;
      for (size_t Len = 0; Len <= 40; ++Len) {
        for (size_t Misalign = 0; Misalign != 8; ++Misalign) {
          for (unsigned Trial = 0; Trial != 4; ++Trial) {
            // The longest span at the largest misalignment, with a
            // word of slack on each side: a word straddling End then
            // holds a hit the decoder must not see.
            alignas(8) unsigned char Buffer[8 + 40 + 8 + 8];
            for (unsigned char &Byte : Buffer)
              Byte = static_cast<unsigned char>(R.next64());
            unsigned char *Begin = Buffer + 8 + Misalign;
            unsigned char *End = Begin + Len;
            for (unsigned Plant = 0; Plant != 3 && Len >= Bytes; ++Plant)
              plantWord(Begin + R.nextBelow(Len - Bytes + 1), Encoding,
                        Edges[R.pickIndex(Edges.size())]);
            if (Len + 1 >= Bytes)
              plantWord(End - Bytes + 1 + R.nextBelow(Bytes - 1), Encoding,
                        Native ? Lo + 64 : 64);

            uint64_t WantExamined = 0;
            std::vector<RootHit> Want = referenceDecode(
                Begin, End, Encoding, Stride, Lo, Size, WantExamined);
            std::vector<RootHit> Got;
            uint64_t Examined = M.forEachRootCandidate(
                Range, Begin, End,
                [&](WindowOffset Candidate, const unsigned char *Word) {
                  Got.push_back({Candidate, Word});
                });
            ASSERT_EQ(Examined, WantExamined)
                << "encoding " << int(Encoding) << " stride " << Stride
                << " length " << Len << " misalignment " << Misalign;
            ASSERT_EQ(Got, Want)
                << "encoding " << int(Encoding) << " stride " << Stride
                << " length " << Len << " misalignment " << Misalign;
          }
        }
      }
    }
  }
}

// A registered range with an exclusion hole is scanned as its two
// scannable pieces: the second starts at an odd byte, so only words at
// 257 + 4k are read.  The counts below are the words and hits of that
// layout at the default stride of 4.
TEST(Marker, ExclusionHoleRootCounts) {
  Collector GC(markerConfig());
  alignas(8) unsigned char Range[512] = {};
  auto Plant = [&](size_t At) {
    uint64_t Word = reinterpret_cast<uint64_t>(GC.allocate(32));
    std::memcpy(Range + At, &Word, sizeof(Word));
  };
  Plant(16);  // Read: offset 16 of the first piece.
  Plant(161); // Inside the hole.
  Plant(261); // Read: 257 + 4.
  Plant(400); // Not on the second piece's stride.
  GC.addRootRange(Range, Range + sizeof(Range), RootEncoding::Native64,
                  RootSource::StaticData, "holed");
  GC.addRootExclusion(Range + 130, Range + 257);
  CollectionStats Cycle = GC.collect();
  EXPECT_EQ(Cycle.RootBytesScanned, 130u + 255u);
  EXPECT_EQ(Cycle.RootCandidatesExamined,
            ((130u - 8) / 4 + 1) + ((255u - 8) / 4 + 1));
  EXPECT_EQ(Cycle.RootHits, 2u);
}
