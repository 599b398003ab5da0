// Seeded input generator for the benchmark workloads.
//
// Everything here is a pure function of the seed: the same seed gives the
// same program text, expected verdicts and reference arrays, byte for byte.
// Reference arrays come from a sequential ir::Evaluator run of the
// *uncoalesced* source, computed before any clock starts; the system under
// test only ever receives the program text.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// One array of a reference result: name, length and a 128-bit digest of
/// its raw bits (two independent 64-bit word hashes). Digests instead of
/// contents keep tens of thousands of references small; any changed bit
/// changes the digest.
struct RefArray {
  std::string name;
  std::size_t size = 0;
  std::array<std::uint64_t, 2> digest{};
};

/// An array of a result under check, viewed in place.
struct ArrayView {
  std::string_view name;
  std::span<const double> data;
};

/// One request: a program plus what the system must answer for it.
struct Case {
  std::string source;
  bool admit = true;
  /// Expected rejection phase ("verify", "lint", "race") when !admit.
  std::string phase;
  /// Final arrays of the sequential reference run (admitted cases only).
  std::vector<RefArray> reference;
};

/// 18 programs: 16 small JIT-compatible ones (1-4-deep rectangular and
/// triangular DOALL nests of about 300-3000 iterations with odd prime
/// extents, some with a sequential inner `do`) and two renamed variants of
/// `*.bad.loop` / `*.racy.loop` examples that admission must reject in a
/// known phase.
std::vector<Case> jit_pool(std::uint64_t seed);

/// 1-3-root JIT-compatible programs for the library workload; some carry a
/// sequential root (a recurrence no analysis can parallelize).
std::vector<Case> lib_corpus(std::uint64_t seed);

/// Fills Case::reference for every admitted case, splitting the work over
/// `threads` threads. Aborts the process if a generated program does not
/// parse: that is a generator bug, not a system failure.
void compute_references(std::vector<Case>& cases, unsigned threads);

/// "" when `got` holds the same arrays as `want`, bit for bit; otherwise
/// the first difference.
std::string compare_arrays(const std::vector<RefArray>& want,
                           const std::vector<ArrayView>& got);

/// Applies a self-test fault ("corrupt_reference", "wrong_phase") to the
/// first case it fits; false when none does.
bool apply_fault(const std::string& fault, std::vector<Case>& cases);

/// Canonical dump of the cases (text, verdicts, a hash of every reference
/// array) used to check that a seed reproduces its inputs exactly.
void write_cases(std::ostream& out, const std::vector<Case>& cases);

}  // namespace perfbench
