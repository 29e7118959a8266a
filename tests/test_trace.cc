/**
 * @file
 * Unit tests for the trace layer: record layout, file round-trips, the
 * symbol table, and criteria files. The block reader is swept in
 * test_trace_properties.cc.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "trace/criteria.hh"
#include "trace/record.hh"
#include "trace/symtab.hh"
#include "trace/trace_file.hh"
#include "temp_dir.hh"

namespace webslice {
namespace trace {
namespace {

Record
makeRecord(size_t i)
{
    Record rec;
    rec.pc = static_cast<Pc>(0x1000 + 4 * i);
    rec.addr = 0x10000000ull + i;
    rec.aux = static_cast<uint32_t>(i % 9);
    rec.tid = static_cast<ThreadId>(i % 3);
    rec.kind = (i % 2) ? RecordKind::Alu : RecordKind::Store;
    rec.rr0 = static_cast<RegId>(i % 64);
    rec.rw = static_cast<RegId>((i + 1) % 64);
    return rec;
}

// ---- record ----------------------------------------------------------------

TEST(Record, StaysCompact)
{
    EXPECT_EQ(sizeof(Record), 32u);
}

TEST(Record, PseudoDetection)
{
    Record rec;
    rec.kind = RecordKind::SyscallRead;
    EXPECT_TRUE(rec.isPseudo());
    rec.kind = RecordKind::SyscallWrite;
    EXPECT_TRUE(rec.isPseudo());
    rec.kind = RecordKind::Syscall;
    EXPECT_FALSE(rec.isPseudo());
    rec.kind = RecordKind::Marker;
    EXPECT_FALSE(rec.isPseudo());
}

TEST(Record, ControlDetectionAndFlags)
{
    Record rec;
    rec.kind = RecordKind::Branch;
    EXPECT_TRUE(rec.isControl());
    EXPECT_FALSE(rec.taken());
    rec.flags |= kFlagTaken;
    EXPECT_TRUE(rec.taken());
    rec.kind = RecordKind::Call;
    rec.flags |= kFlagIndirect;
    EXPECT_TRUE(rec.indirect());
    rec.kind = RecordKind::Load;
    EXPECT_FALSE(rec.isControl());
}

// ---- trace file ------------------------------------------------------------

TEST(TraceFile, WriteLoadRoundTrip)
{
    const std::string path = tempPath("roundtrip.trc");
    {
        TraceWriter writer(path);
        for (size_t i = 0; i < 1000; ++i)
            writer.append(makeRecord(i));
        EXPECT_EQ(writer.count(), 1000u);
    }
    const auto records = loadTrace(path);
    ASSERT_EQ(records.size(), 1000u);
    for (size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].pc, makeRecord(i).pc);
        EXPECT_EQ(records[i].addr, makeRecord(i).addr);
        EXPECT_EQ(records[i].tid, makeRecord(i).tid);
    }
    std::remove(path.c_str());
}

TEST(TraceFile, EmptyTrace)
{
    const std::string path = tempPath("empty.trc");
    {
        TraceWriter writer(path);
    }
    EXPECT_TRUE(loadTrace(path).empty());
    std::remove(path.c_str());
}

TEST(TraceFile, SaveTraceHelper)
{
    const std::string path = tempPath("save.trc");
    std::vector<Record> records;
    for (size_t i = 0; i < 77; ++i)
        records.push_back(makeRecord(i));
    saveTrace(path, records);
    const auto loaded = loadTrace(path);
    ASSERT_EQ(loaded.size(), 77u);
    EXPECT_EQ(loaded[76].addr, records[76].addr);
    std::remove(path.c_str());
}

TEST(TraceFile, RewritingATracePublishesANewInode)
{
    // Every write goes to a temp file renamed into place, so a reader
    // holding the old file keeps the old bytes, and a stat() that still
    // matches a hashed .trc means the same bytes (the service's session
    // cache relies on it).
    const std::string path = tempPath("republish.trc");
    saveTrace(path, {makeRecord(0)});
    const int pinned = ::open(path.c_str(), O_RDONLY);
    ASSERT_GE(pinned, 0);
    struct stat before;
    ASSERT_EQ(::fstat(pinned, &before), 0);

    saveTrace(path, {makeRecord(0), makeRecord(1)});
    struct stat after;
    ASSERT_EQ(::stat(path.c_str(), &after), 0);
    EXPECT_NE(before.st_ino, after.st_ino);
    struct stat old_file;
    ASSERT_EQ(::fstat(pinned, &old_file), 0);
    EXPECT_EQ(old_file.st_size, before.st_size); // untouched
    EXPECT_EQ(loadTrace(path).size(), 2u);
    ::close(pinned);
    std::remove(path.c_str());
}

// ---- symbol table ----------------------------------------------------------

TEST(SymbolTable, RegisterAndLookup)
{
    SymbolTable symtab;
    const FuncId f0 = symtab.addFunction(0x1000, "v8::Parser::parse");
    const FuncId f1 = symtab.addFunction(0x2000, "cc::TileManager::run");
    EXPECT_EQ(f0, 0u);
    EXPECT_EQ(f1, 1u);
    EXPECT_EQ(symtab.functionAtEntry(0x1000), f0);
    EXPECT_EQ(symtab.functionAtEntry(0x2000), f1);
    EXPECT_EQ(symtab.functionAtEntry(0x3000), kNoFunc);
    EXPECT_EQ(symtab.symbol(f0).name, "v8::Parser::parse");
    EXPECT_EQ(symtab.functionCount(), 2u);
}

TEST(SymbolTable, PcOwnershipFirstWins)
{
    SymbolTable symtab;
    const FuncId f0 = symtab.addFunction(0x1000, "a::f");
    const FuncId f1 = symtab.addFunction(0x2000, "b::g");
    symtab.assignPc(0x1004, f0);
    symtab.assignPc(0x1004, f1); // ignored: first owner wins
    EXPECT_EQ(symtab.functionOfPc(0x1004), f0);
    EXPECT_EQ(symtab.functionOfPc(0x9999), kNoFunc);
}

TEST(SymbolTable, SaveLoadRoundTrip)
{
    SymbolTable symtab;
    const FuncId f0 = symtab.addFunction(0x1000, "v8::Script::compile");
    symtab.addFunction(0x2000, "base::threading::Mutex::lock");
    symtab.assignPc(0x1008, f0);

    const std::string path = tempPath("symtab.txt");
    symtab.save(path);

    SymbolTable loaded;
    loaded.load(path);
    EXPECT_EQ(loaded.functionCount(), 2u);
    EXPECT_EQ(loaded.symbol(0).name, "v8::Script::compile");
    EXPECT_EQ(loaded.symbol(1).name, "base::threading::Mutex::lock");
    EXPECT_EQ(loaded.functionAtEntry(0x2000), 1u);
    EXPECT_EQ(loaded.functionOfPc(0x1008), f0);
    std::remove(path.c_str());
}

// ---- criteria --------------------------------------------------------------

TEST(CriteriaSet, AddAndQuery)
{
    CriteriaSet criteria;
    criteria.add(0, 0x1000, 256);
    criteria.add(0, 0x2000, 64);
    criteria.add(5, 0x3000, 128);
    EXPECT_EQ(criteria.markerCount(), 2u);
    EXPECT_EQ(criteria.forMarker(0).size(), 2u);
    EXPECT_EQ(criteria.forMarker(5).size(), 1u);
    EXPECT_TRUE(criteria.forMarker(7).empty());
    EXPECT_EQ(criteria.totalBytes(), 448u);
}

TEST(CriteriaSet, SaveLoadRoundTrip)
{
    CriteriaSet criteria;
    criteria.add(1, 0xAAAA, 16);
    criteria.add(2, 0xBBBB, 32);

    const std::string path = tempPath("criteria.txt");
    criteria.save(path);

    CriteriaSet loaded;
    loaded.load(path);
    EXPECT_EQ(loaded.markerCount(), 2u);
    ASSERT_EQ(loaded.forMarker(1).size(), 1u);
    EXPECT_EQ(loaded.forMarker(1)[0], (MemRange{0xAAAA, 16}));
    EXPECT_EQ(loaded.totalBytes(), 48u);
    std::remove(path.c_str());
}

} // namespace
} // namespace trace
} // namespace webslice
