#ifndef EMSIM_EXTSORT_RECORD_H_
#define EMSIM_EXTSORT_RECORD_H_

#include <compare>
#include <cstdint>

namespace emsim::extsort {

/// A fixed-size sort record: 8-byte key, 8-byte payload, ordered by
/// (key, value). Generated inputs set `value` to the record's input index,
/// so no two records compare equal.
struct Record {
  uint64_t key = 0;
  uint64_t value = 0;

  friend auto operator<=>(const Record&, const Record&) = default;
};

}  // namespace emsim::extsort

#endif  // EMSIM_EXTSORT_RECORD_H_
