#include "vcode/backend.hpp"

#include <cctype>
#include <cstdlib>
#include <string>

namespace ash::vcode {

const char* to_string(Backend b) noexcept {
  switch (b) {
    case Backend::Interp: return "interp";
    case Backend::CodeCache: return "codecache";
    case Backend::Jit: return "jit";
  }
  return "?";
}

bool backend_env_override(Backend* out) {
  const char* v = std::getenv("ASH_BACKEND");
  if (v == nullptr || *v == '\0') return false;
  std::string s(v);
  for (auto& ch : s) {
    ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
  }
  if (s == "interp" || s == "interpreter" || s == "off") {
    *out = Backend::Interp;
    return true;
  }
  if (s == "jit") {
    *out = Backend::Jit;
    return true;
  }
  return false;
}

}  // namespace ash::vcode
