#ifndef SWIM_TESTS_WITH_THREADS_H_
#define SWIM_TESTS_WITH_THREADS_H_

#include <cstdlib>
#include <string>

namespace swim {

/// Runs `body` with SWIM_THREADS set to `threads`, then restores it.
template <typename Body>
void WithThreads(const char* threads, Body&& body) {
  const char* old = std::getenv("SWIM_THREADS");
  const std::string saved = old ? old : "";
  ::setenv("SWIM_THREADS", threads, 1);
  body();
  if (old) {
    ::setenv("SWIM_THREADS", saved.c_str(), 1);
  } else {
    ::unsetenv("SWIM_THREADS");
  }
}

}  // namespace swim

#endif  // SWIM_TESTS_WITH_THREADS_H_
