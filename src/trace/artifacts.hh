/**
 * @file
 * One recording's artifact bundle: the <prefix>.trc/.sym/.crit/.meta
 * files webslice-record hands to every offline consumer. (The
 * recording's <prefix>.scn rides beside them but is not part of its
 * identity; see scenario/recording.hh.)
 *
 * webslice-profile, webslice-check, and webslice-served all start from
 * the same ritual — load the three sidecars, note the run metadata, and
 * digest every artifact for the report — so it lives here once instead
 * of being pasted into each front end. The digests double as the
 * session-cache key in the service: two prefixes with identical digests
 * are the same recording, and a changed file on disk is a different one.
 */

#ifndef WEBSLICE_TRACE_ARTIFACTS_HH
#define WEBSLICE_TRACE_ARTIFACTS_HH

#include <string>
#include <utility>
#include <vector>

#include "support/metrics.hh"
#include "trace/criteria.hh"
#include "trace/run_meta.hh"
#include "trace/symtab.hh"

namespace webslice {
namespace trace {

/** The non-trace sidecars of one recording, loaded together. */
struct ArtifactSidecars
{
    SymbolTable symtab;
    CriteriaSet criteria;
    RunMeta meta;
};

/**
 * Load <prefix>.sym, <prefix>.crit, and <prefix>.meta. Each loader
 * keeps its own loud failure behavior (file + offset/line on
 * truncation or garbage); a missing .meta stays legal.
 */
ArtifactSidecars loadArtifactSidecars(const std::string &prefix);

/** (path, digest) for each artifact of a recording, in a fixed order. */
struct ArtifactDigest
{
    std::string path;
    FileDigest digest;
};

/**
 * Digest the artifact files of `prefix`: .trc, .sym, .crit, .meta.
 * Unreadable files keep digest.ok == false rather than failing, so
 * missing sidecars report as absent.
 */
std::vector<ArtifactDigest> digestArtifacts(const std::string &prefix);

/**
 * digestArtifacts() for a caller that already holds the .trc's digest:
 * only the three sidecars are read.
 */
std::vector<ArtifactDigest> digestArtifacts(const std::string &prefix,
                                            const FileDigest &trace);

/**
 * Fold a digest list into one FNV-1a-64 identity for the whole
 * recording. Any changed byte in any artifact changes the fold; a
 * missing-but-listed artifact contributes a fixed marker so presence
 * changes are visible too.
 */
uint64_t combinedArtifactDigest(const std::vector<ArtifactDigest> &digests);

/**
 * The digests as the JSON object the metrics reports embed: path ->
 * {"bytes": N, "fnv1a64": "0x..."} with null for unreadable files.
 */
std::string artifactDigestsJson(const std::vector<ArtifactDigest> &digests);

} // namespace trace
} // namespace webslice

#endif // WEBSLICE_TRACE_ARTIFACTS_HH
