/**
 * @file
 * A traced program long enough to span several trace-index blocks,
 * saved to a scratch .trc with the WEBTIDX1 footer: the fixture of the
 * file-path tests in test_trace.cc and test_slicer.cc.
 */

#ifndef WEBSLICE_TESTS_BIG_SAVED_PROGRAM_HH
#define WEBSLICE_TESTS_BIG_SAVED_PROGRAM_HH

#include <cstdio>
#include <string>

#include "sim/machine.hh"
#include "trace/trace_file.hh"
#include "temp_dir.hh"

namespace webslice {

/** A saved multi-block trace with its machine. */
struct BigSavedProgram
{
    sim::Machine machine;
    std::string path;

    BigSavedProgram()
    {
        const auto tid = machine.addThread("main");
        const uint64_t heap = machine.alloc(64, "heap");
        const uint64_t pixels = machine.alloc(16, "tile");
        machine.post(tid, [&](sim::Ctx &ctx) {
            // Enough records to span several index blocks.
            const size_t rounds = (1 << 16) + 4000;
            for (size_t i = 0; i < rounds; ++i) {
                sim::Value v = ctx.imm(i & 0xFF);
                ctx.store(heap + 8 * (i % 8), 4, v);
            }
            sim::Value color = ctx.load(heap, 4);
            ctx.store(pixels, 4, color);
            const trace::MemRange ranges[] = {{pixels, 16}};
            ctx.marker(ranges);
        });
        machine.run();

        path = tempPath("big_saved_program.trc");
        trace::TraceWriter writer(path, /*block_index=*/true);
        for (const auto &rec : machine.records())
            writer.append(rec);
        writer.close();
    }

    ~BigSavedProgram() { std::remove(path.c_str()); }
};

} // namespace webslice

#endif // WEBSLICE_TESTS_BIG_SAVED_PROGRAM_HH
