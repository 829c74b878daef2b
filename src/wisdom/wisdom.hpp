// Wisdom persistence and the thread-safe WisdomStore.
//
// The text format is versioned and line-oriented so files survive hand
// editing, diffing and concatenation (`cat a.wisdom b.wisdom` is a valid
// merge input):
//
//   spiral-wisdom 1
//   # comments and blank lines are ignored
//   plan kind=dft n=4096 n2=0 p=4 mu=4 nu=0 leaf=32 dir=-1
//   tree 4096 ct(ct(8,8),ct(8,8))
//   tree 64 ct(8,8)
//   endplan
//
// Every `plan` opens a descriptor (all seven parameters required, any
// order), each `tree <size> <expr>` attaches the ruletree chosen for that
// sequential DFT size, and `endplan` closes it. A `jitkey <hex>` line
// inside a block, written by older builds, is validated and ignored.
// Import is atomic: any
// malformed line, unknown key, failed validation or version mismatch
// rejects the whole blob with a diagnostic and leaves the store untouched.
#pragma once

#include <mutex>
#include <optional>
#include <vector>

#include "wisdom/descriptor.hpp"

namespace spiral::wisdom {

/// Current wisdom text format version (the integer after the magic).
inline constexpr int kWisdomFormatVersion = 1;

/// What to do when an imported descriptor collides with a stored one
/// (same PlanDescriptor::Key).
enum class MergePolicy {
  kPreferImported,  ///< imported entry replaces the stored one (default)
  kPreferExisting,  ///< stored entry wins; imported duplicate is dropped
};

/// Outcome of an import. `ok == false` means the input was rejected as a
/// whole (version mismatch or malformed content) and nothing was merged.
struct ImportResult {
  bool ok = false;
  std::size_t imported = 0;  ///< descriptors added or replacing an entry
  std::size_t skipped = 0;   ///< duplicates dropped under kPreferExisting
  std::string error;         ///< diagnostic when !ok
};

/// Serializes descriptors to the versioned text format.
[[nodiscard]] std::string to_text(const std::vector<PlanDescriptor>& plans);

/// Parses a wisdom blob. Returns true and fills `out` on success; returns
/// false with a diagnostic in `error` (and an empty `out`) on any malformed
/// or version-mismatched input. Never throws on bad input.
bool parse_text(const std::string& text, std::vector<PlanDescriptor>& out,
                std::string& error);

/// Thread-safe set of plan descriptors keyed by PlanDescriptor::Key.
class WisdomStore {
 public:
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] bool empty() const { return size() == 0; }
  void clear();

  /// Inserts (or merges) one descriptor. Returns true when the store
  /// changed. The descriptor must already be valid.
  bool add(PlanDescriptor d, MergePolicy policy = MergePolicy::kPreferImported);

  /// Finds the descriptor with this exact key, if any.
  [[nodiscard]] std::optional<PlanDescriptor> lookup(
      const PlanDescriptor::Key& key) const;

  /// Snapshot of every stored descriptor (deterministic key order).
  [[nodiscard]] std::vector<PlanDescriptor> all() const;

  /// Serializes the whole store to the text format.
  [[nodiscard]] std::string export_text() const;

  /// Parses `text` and merges every descriptor. Atomic on failure.
  ImportResult import_text(const std::string& text,
                           MergePolicy policy = MergePolicy::kPreferImported);

 private:
  mutable std::mutex m_;
  std::map<PlanDescriptor::Key, PlanDescriptor> entries_;
};

/// Process-wide store backing the FFTW-style convenience API below (and
/// the global plan cache).
[[nodiscard]] WisdomStore& global_wisdom();

/// Exports the global store (FFTW: fftw_export_wisdom_to_string).
[[nodiscard]] std::string export_wisdom();

/// Merges a wisdom blob into the global store (FFTW: fftw_import_wisdom).
ImportResult import_wisdom(const std::string& text,
                           MergePolicy policy = MergePolicy::kPreferImported);

/// File convenience wrappers over the global store. Return ok=false /
/// false on I/O errors instead of throwing.
bool export_wisdom_to_file(const std::string& path);
ImportResult import_wisdom_from_file(
    const std::string& path, MergePolicy policy = MergePolicy::kPreferImported);

/// Drops all descriptors from the global store (FFTW: fftw_forget_wisdom).
void forget_wisdom();

}  // namespace spiral::wisdom
