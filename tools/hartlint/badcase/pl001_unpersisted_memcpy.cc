// Deliberately broken PM code: hartlint must report exactly PL001 here
// (five findings). Not part of the build; the hartlint_badcase_pl001 ctest
// asserts the rule still fires.
#include <cstring>

#include "pmem/arena.h"

namespace hart::badcase {

// The bytes land in the arena but nothing flushes them — a crash right
// after return loses the record silently.
void forget_persist(pmem::Arena& a, uint64_t off, const char* src) {
  auto* dst = a.ptr<char>(off);
  std::memcpy(dst, src, 32);
}

// Through a member alias: the destination pointer is derived from a PM
// record (`rec->bytes`), and neither the alias nor the record itself is
// ever persisted.
struct BadRec {
  uint64_t id;
  unsigned char bytes[48];
};
void forget_persist_member_alias(pmem::Arena& a, uint64_t off,
                                 const char* src) {
  auto* rec = a.ptr<BadRec>(off);
  unsigned char* dst = rec->bytes;
  std::memcpy(dst, src, 32);
}

// Through pointer arithmetic: the destination is a PM-derived pointer
// offset into the middle of the allocation.
void forget_persist_pointer_arith(pmem::Arena& a, uint64_t off,
                                  const char* src) {
  auto* base = a.ptr<char>(off);
  char* dst2 = base + 64;
  std::memcpy(dst2, src, 32);
}

// Two findings: rebuilding a per-leaf fingerprint array in PM without
// flushing it — after a crash the guards silently disagree with the keys
// and every lookup through them is a wrong answer, not a slow one. (The
// real HART keeps the persisted fingerprint inside the leaf's
// already-persisted tail range; see DESIGN.md §10.)
void rebuild_fingerprints_unpersisted(pmem::Arena& a, uint64_t off,
                                      const unsigned char* fps, size_t n) {
  auto* fp_array = a.ptr<unsigned char>(off);
  std::memset(fp_array, 0, n);
  std::memcpy(fp_array, fps, n);
}

}  // namespace hart::badcase
