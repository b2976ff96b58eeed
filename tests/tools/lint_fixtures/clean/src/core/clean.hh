#pragma once

namespace emv {

inline constexpr unsigned kCleanAnswer = 42;

/** A process-wide cache that locks itself, so shared-mutable-state
 *  accepts a namespace-scope object of it. */
class CleanCache
{
  public:
    unsigned value();

  private:
    std::mutex mutex;
    unsigned cached = 0;
};

CleanCache cleanCache;

} // namespace emv
