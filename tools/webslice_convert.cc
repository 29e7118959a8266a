/**
 * @file
 * webslice-convert: transcode a recorded session between trace formats.
 *
 *   webslice-convert <input-prefix> <output-prefix> [--to=v1|v2]
 *                    [--verify]
 *
 * Reads <input-prefix>.trc (either format) and writes
 * <output-prefix>.trc in the requested format (default: the other
 * format from the input's). The text sidecars (.sym, .crit, .meta) and
 * the scenario (.scn) are copied verbatim, so the converted prefix is a
 * complete, sliceable, re-executable session. Output files are
 * published atomically (temp file + rename), and the record stream —
 * and therefore every slice digest computed from it — is preserved
 * bit-identically.
 *
 * --verify reloads the output trace after conversion and compares every
 * record with the input, failing loudly on the first difference.
 *
 * The tool prints the before/after trace sizes and the compression
 * ratio, which CI's trace-format job asserts against.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "support/logging.hh"
#include "support/strings.hh"
#include "trace/trace_file.hh"

using namespace webslice;

namespace {

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s <input-prefix> <output-prefix> "
                 "[--to=v1|v2] [--verify]\n"
                 "  --to: target trace format; defaults to the format "
                 "the input is not\n"
                 "  --verify: reload the output trace and compare every "
                 "record\n",
                 argv0);
}

uint64_t
fileBytes(const std::string &path)
{
    struct stat st;
    fatal_if(::stat(path.c_str(), &st) != 0, "cannot stat ", path);
    return static_cast<uint64_t>(st.st_size);
}

bool
exists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

/** Copy a sidecar verbatim via a temp file + rename. */
void
copyFile(const std::string &from, const std::string &to)
{
    std::ifstream in(from, std::ios::binary);
    fatal_if(!in, "cannot read ", from);
    const std::string tmp = to + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary);
        fatal_if(!out, "cannot write ", tmp);
        out << in.rdbuf();
        fatal_if(!out, "short write copying ", from, " to ", tmp);
    }
    fatal_if(std::rename(tmp.c_str(), to.c_str()) != 0,
             "cannot rename ", tmp, " into place as ", to);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3) {
        usage(argv[0]);
        return 1;
    }
    const std::string in_prefix = argv[1];
    const std::string out_prefix = argv[2];
    bool verify = false;
    bool to_set = false;
    trace::TraceFormat to = trace::TraceFormat::V2;
    for (int a = 3; a < argc; ++a) {
        if (!std::strcmp(argv[a], "--verify")) {
            verify = true;
        } else if (!std::strcmp(argv[a], "--to=v1")) {
            to = trace::TraceFormat::V1;
            to_set = true;
        } else if (!std::strcmp(argv[a], "--to=v2")) {
            to = trace::TraceFormat::V2;
            to_set = true;
        } else {
            usage(argv[0]);
            return 1;
        }
    }
    fatal_if(in_prefix == out_prefix,
             "input and output prefixes must differ");

    const std::string in_trace = in_prefix + ".trc";
    const std::string out_trace = out_prefix + ".trc";
    const trace::TraceFormat from = trace::sniffTraceFormat(in_trace);
    if (!to_set) {
        to = from == trace::TraceFormat::V1 ? trace::TraceFormat::V2
                                            : trace::TraceFormat::V1;
    }

    // ---- trace ---------------------------------------------------------
    const std::vector<trace::Record> records = trace::loadTrace(in_trace);
    {
        // The v1 output carries the WEBTIDX1 per-block counts, as
        // webslice-record writes it; the v2 index is structural.
        // Atomic: a crashed conversion leaves no partial .trc under the
        // output prefix.
        trace::TraceWriter writer(out_trace, /*block_index=*/true, to,
                                  /*atomic=*/true);
        for (const auto &rec : records)
            writer.append(rec);
        writer.close();
    }

    // ---- sidecars ------------------------------------------------------
    for (const char *ext : {".sym", ".crit", ".meta", ".scn"}) {
        if (exists(in_prefix + ext))
            copyFile(in_prefix + ext, out_prefix + ext);
    }

    // ---- verify --------------------------------------------------------
    if (verify) {
        const auto reloaded = trace::loadTrace(out_trace);
        fatal_if(reloaded.size() != records.size(), "verify failed: ",
                 out_trace, " holds ", reloaded.size(), " records, ",
                 in_trace, " holds ", records.size());
        for (size_t i = 0; i < records.size(); ++i) {
            fatal_if(records[i] != reloaded[i], "verify failed: record ",
                     i, " differs between ", in_trace, " and ",
                     out_trace);
        }
        std::fprintf(stderr, "verify: records bit-identical\n");
    }

    const uint64_t in_bytes = fileBytes(in_trace);
    const uint64_t out_bytes = fileBytes(out_trace);
    std::printf("%s (v%d, %s bytes) -> %s (v%d, %s bytes), ratio "
                "%.2fx\n",
                in_trace.c_str(), static_cast<int>(from),
                withCommas(in_bytes).c_str(), out_trace.c_str(),
                static_cast<int>(to), withCommas(out_bytes).c_str(),
                out_bytes ? static_cast<double>(in_bytes) /
                                static_cast<double>(out_bytes)
                          : 0.0);
    return 0;
}
