/**
 * @file
 * What is left of the epoch plan: an empty type that is never built.
 *
 * Every backward pass is the sequential walk of slicer.hh. This type
 * remains only because perfbench/src/serve_mixed.cc names it.
 */

#ifndef WEBSLICE_SLICER_EPOCH_HH
#define WEBSLICE_SLICER_EPOCH_HH

#include <cstddef>

namespace webslice {
namespace slicer {

/** Kept for perfbench/src/serve_mixed.cc; no instance is ever made. */
class EpochPlan
{
  public:
    size_t epochCount() const { return 0; }
};

} // namespace slicer
} // namespace webslice

#endif // WEBSLICE_SLICER_EPOCH_HH
