/**
 * @file
 * Wall-clock timing helper used by the benchmark harnesses.
 */

#ifndef PMDB_COMMON_STOPWATCH_HH
#define PMDB_COMMON_STOPWATCH_HH

#include <chrono>

namespace pmdb
{

/** Simple wall-clock stopwatch (steady clock). */
class Stopwatch
{
  public:
    Stopwatch() { reset(); }

    void reset() { start_ = Clock::now(); }

    /** Seconds elapsed since construction or the last reset(). */
    double
    elapsedSeconds() const
    {
        return std::chrono::duration<double>(Clock::now() - start_).count();
    }

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_;
};

} // namespace pmdb

#endif // PMDB_COMMON_STOPWATCH_HH
