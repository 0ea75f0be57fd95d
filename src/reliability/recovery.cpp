#include "reliability/recovery.hpp"

#include <bit>
#include <utility>

#include "common/error.hpp"

namespace pinatubo::reliability {

namespace {

// A bad spare burns another one; past this many the subarray is a brick.
constexpr unsigned kMaxSpareAttempts = 8;

/// One parity bit per stored word, packed.
std::vector<BitVector::Word> parity_of(const BitVector& v) {
  std::vector<BitVector::Word> out((v.word_count() + 63) / 64, 0);
  const auto words = v.words();
  for (std::size_t w = 0; w < words.size(); ++w) {
    if (std::popcount(words[w]) & 1)
      out[w / 64] |= BitVector::Word{1} << (w % 64);
  }
  return out;
}

}  // namespace

RecoveryManager::RecoveryManager(mem::MainMemory& mem, const Policy& policy,
                                 SpareFn spares)
    : mem_(mem), policy_(policy), spares_(std::move(spares)) {
  if (policy_.retry.remap && policy_.verify.writes != WriteVerify::kNone)
    PIN_CHECK_MSG(spares_ != nullptr,
                  "retry.remap needs a spare-row source (SpareFn)");
}

void RecoveryManager::write(const mem::RowAddr& addr, std::size_t bit_offset,
                            const BitVector& data) {
  // The intended post-write image: prior stored content (trusted, because
  // every write routes through here and was verified) overlaid with `data`.
  const std::size_t row_bits = mem_.geometry().rank_row_bits();
  BitVector expected = mem_.row_exists(addr)
                           ? mem_.read_row(addr)
                           : BitVector(row_bits);
  copy_bits(expected.words(), bit_offset, data.words(), 0, data.size());

  mem_.write_row_partial(addr, bit_offset, data);

  if (policy_.verify.writes == WriteVerify::kNone) return;
  if (policy_.verify.writes == WriteVerify::kParity)
    update_parity(addr, expected);
  if (row_ok(addr, expected)) return;

  ++counters_.detected_faults;
  // Without remap, detection is diagnostic only — the corruption stays
  // stored and downstream results show it.
  if (policy_.retry.remap) remap_rank_row(addr, expected);
}

bool RecoveryManager::row_ok(const mem::RowAddr& addr,
                             const BitVector& expected) const {
  if (policy_.verify.writes == WriteVerify::kParity) {
    const auto it = parity_.find(mem_.codec().encode(addr));
    if (it == parity_.end()) return true;  // untracked row: nothing to check
    return parity_of(mem_.read_row(addr)) == it->second;
  }
  return mem_.read_row(addr) == expected;
}

void RecoveryManager::remap_rank_row(const mem::RowAddr& addr,
                                     const BitVector& expected) {
  // Lock-step activation broadcasts one row index across the rank's banks,
  // so the whole rank-row moves together.  Capture every bank's intended
  // content BEFORE touching the translation table: the failing bank gets
  // `expected`, the healthy banks keep what they store (trusted — their
  // own writes were verified).
  const auto& geo = mem_.geometry();
  std::vector<BitVector> corrected(geo.banks_per_chip);
  std::vector<mem::RowAddr> logical(geo.banks_per_chip);
  for (unsigned b = 0; b < geo.banks_per_chip; ++b) {
    logical[b] = {addr.channel, addr.rank, b, addr.subarray, addr.row};
    corrected[b] = b == addr.bank ? expected : mem_.read_row(logical[b]);
  }

  for (unsigned attempt = 0; attempt < kMaxSpareAttempts; ++attempt) {
    const auto spare = spares_(addr.channel, addr.rank, addr.subarray);
    PIN_CHECK_MSG(spare.has_value(),
                  "spare rows exhausted in channel "
                      << addr.channel << " rank " << addr.rank << " subarray "
                      << addr.subarray
                      << " while healing a persistent fault; raise "
                         "retry.spare_rows");
    for (unsigned b = 0; b < geo.banks_per_chip; ++b) {
      const mem::RowAddr repl{addr.channel, addr.rank, b, addr.subarray,
                              *spare};
      mem_.remap_row(logical[b], repl);
      mem_.write_row(logical[b], corrected[b]);
    }
    ++counters_.remaps;
    // Remaps are rare; verify the copy with an exact read-back compare
    // regardless of the configured (possibly cheaper) verify mode.
    bool ok = true;
    for (unsigned b = 0; ok && b < geo.banks_per_chip; ++b)
      ok = mem_.read_row(logical[b]) == corrected[b];
    if (ok) return;
    ++counters_.detected_faults;  // the spare itself is bad
  }
  PIN_UNREACHABLE("row " + addr.to_string() + " could not be healed after " +
                  std::to_string(kMaxSpareAttempts) + " spare attempts");
}

void RecoveryManager::update_parity(const mem::RowAddr& addr,
                                    const BitVector& expected) {
  parity_[mem_.codec().encode(addr)] = parity_of(expected);
}

BitVector RecoveryManager::expected_window(
    const std::vector<mem::RowAddr>& rows, BitOp op, std::size_t win_lo,
    std::size_t win_len) const {
  PIN_CHECK(!rows.empty());
  BitVector acc = mem_.read_row_partial(rows[0], win_lo, win_len);
  if (op == BitOp::kInv) {
    acc.invert();
    return acc;
  }
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const BitVector next = mem_.read_row_partial(rows[i], win_lo, win_len);
    switch (op) {
      case BitOp::kOr:
        acc |= next;
        break;
      case BitOp::kAnd:
        acc &= next;
        break;
      case BitOp::kXor:
        acc ^= next;
        break;
      case BitOp::kInv:
        break;
    }
  }
  return acc;
}

void RecoveryManager::reset() {
  counters_ = {};
  parity_.clear();
}

}  // namespace pinatubo::reliability
