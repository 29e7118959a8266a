#include "trace/artifacts.hh"

#include <iomanip>
#include <sstream>

namespace webslice {
namespace trace {

namespace {

/** Artifact extensions in report order. */
const char *const kExtensions[] = {".trc", ".sym", ".crit", ".meta"};

} // namespace

ArtifactSidecars
loadArtifactSidecars(const std::string &prefix)
{
    ArtifactSidecars sidecars;
    sidecars.symtab.load(prefix + ".sym");
    sidecars.criteria.load(prefix + ".crit");
    sidecars.meta = loadRunMeta(prefix + ".meta");
    return sidecars;
}

std::vector<ArtifactDigest>
digestArtifacts(const std::string &prefix)
{
    std::vector<ArtifactDigest> digests;
    for (const char *ext : kExtensions) {
        const std::string path = prefix + ext;
        digests.push_back({path, digestFile(path)});
    }
    return digests;
}

uint64_t
combinedArtifactDigest(const std::vector<ArtifactDigest> &digests)
{
    uint64_t hash = kFnv1a64Offset;
    for (const ArtifactDigest &entry : digests) {
        // Fold presence first so "file appeared" differs from "file
        // with the same bytes was already there".
        const uint8_t present = entry.digest.ok ? 1 : 0;
        hash = fnv1a64(&present, 1, hash);
        if (!entry.digest.ok)
            continue;
        hash = fnv1a64(&entry.digest.bytes, sizeof(entry.digest.bytes),
                       hash);
        hash = fnv1a64(&entry.digest.fnv1a, sizeof(entry.digest.fnv1a),
                       hash);
    }
    return hash;
}

std::string
artifactDigestsJson(const std::vector<ArtifactDigest> &digests)
{
    std::ostringstream out;
    out << "{\n";
    bool first = true;
    for (const ArtifactDigest &entry : digests) {
        if (!first)
            out << ",\n";
        first = false;
        out << "    \"" << jsonEscape(entry.path) << "\": ";
        if (!entry.digest.ok) {
            out << "null";
            continue;
        }
        out << "{\"bytes\": " << entry.digest.bytes
            << ", \"fnv1a64\": \"0x" << std::hex << std::setw(16)
            << std::setfill('0') << entry.digest.fnv1a << std::dec
            << std::setfill(' ') << "\"}";
    }
    out << "\n  }";
    return out.str();
}

} // namespace trace
} // namespace webslice
