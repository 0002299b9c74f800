// Deliberately broken PM code: hartlint must report exactly PL002 here
// (two findings). Not part of the build; the hartlint_badcase_pl002 ctest
// asserts the rule still fires.
#include "pmem/pmdefs.h"

namespace hart::badcase {

// A vtable pointer and a raw address stored into PM are garbage after the
// arena is re-mapped at a different base.
struct BadNode {
  pmem::POff<BadNode> next;  // fine: offsets survive re-mapping
  BadNode* cached_sibling;   // PL002: raw pointer member
  unsigned char payload[40];

  virtual void visit() {}  // PL002: virtual function => vtable pointer
};

}  // namespace hart::badcase
