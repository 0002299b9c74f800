// Deliberately broken PM code: hartlint must report exactly PL003 here
// (one finding). Not part of the build; the hartlint_badcase_pl003 ctest
// asserts the rule still fires.
#include "pmem/arena.h"
#include "pmem/pmdefs.h"

namespace hart::badcase {

struct PmNode {
  pmem::POff<PmNode> next;
  unsigned char payload[120];
};

// 96 bytes from a field address with no alignment guarantee — the range
// straddles cache lines and costs an extra CLFLUSH per call.
void misaligned_persist(pmem::Arena& a, PmNode* n) {
  a.persist(&n->payload, 96);
}

}  // namespace hart::badcase
