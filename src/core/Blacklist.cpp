//===- core/Blacklist.cpp - Page blacklisting -----------------------------===//

#include "core/Blacklist.h"
#include "core/GcConfig.h"
#include "support/Assert.h"

using namespace cgc;

FlatBitmapBlacklist::FlatBitmapBlacklist(PageIndex NumPages, bool Aging)
    : Current(NumPages), SeenThisCycle(NumPages), Aging(Aging) {}

void FlatBitmapBlacklist::noteCandidate(PageIndex Page) {
  ++Stats.CandidatesNoted;
  if (Page >= Current.size())
    return;
  Current.set(Page);
  if (InCycle)
    SeenThisCycle.set(Page);
}

void FlatBitmapBlacklist::beginCycle() {
  SeenThisCycle.clearAll();
  InCycle = true;
}

void FlatBitmapBlacklist::endCycle() {
  ++Stats.Cycles;
  InCycle = false;
  if (!Aging)
    return;
  // Entries the just-finished collection did not re-observe are dropped:
  // the stale value that produced them has been overwritten.
  Current = SeenThisCycle;
}

void FlatBitmapBlacklist::refresh() {
  // SeenThisCycle is a subset of Current (noteCandidate sets both), so
  // the intersection the sentinel wants is the seen set itself.  Only
  // meaningful between cycles; mid-cycle the seen set is still filling.
  if (InCycle)
    return;
  Current = SeenThisCycle;
}

/// Range-checks \p BitsLog2 before any shift by it or allocation for it.
static size_t hashedBlacklistBits(unsigned BitsLog2) {
  CGC_CHECK(BitsLog2 >= 4 && BitsLog2 <= 28,
            "hashed blacklist size out of range");
  return size_t(1) << BitsLog2;
}

HashedBlacklist::HashedBlacklist(unsigned BitsLog2, bool Aging)
    : BitsLog2(BitsLog2), Current(hashedBlacklistBits(BitsLog2)),
      SeenThisCycle(Current.size()), Aging(Aging) {}

void HashedBlacklist::noteCandidate(PageIndex Page) {
  ++Stats.CandidatesNoted;
  size_t Bit = hashPage(Page);
  Current.set(Bit);
  if (InCycle)
    SeenThisCycle.set(Bit);
}

void HashedBlacklist::beginCycle() {
  SeenThisCycle.clearAll();
  InCycle = true;
}

void HashedBlacklist::endCycle() {
  ++Stats.Cycles;
  InCycle = false;
  if (!Aging)
    return;
  Current = SeenThisCycle;
}

void HashedBlacklist::refresh() {
  if (InCycle)
    return;
  Current = SeenThisCycle;
}

std::unique_ptr<Blacklist> cgc::createBlacklist(BlacklistMode Mode,
                                                PageIndex NumPages,
                                                unsigned HashedBitsLog2,
                                                bool Aging) {
  switch (Mode) {
  case BlacklistMode::Off:
    return std::make_unique<NullBlacklist>();
  case BlacklistMode::FlatBitmap:
    return std::make_unique<FlatBitmapBlacklist>(NumPages, Aging);
  case BlacklistMode::Hashed:
    return std::make_unique<HashedBlacklist>(HashedBitsLog2, Aging);
  }
  CGC_UNREACHABLE("bad blacklist mode");
}
