/**
 * @file fdip_trace_convert.cc
 * Convert a ChampSim trace into the native v2 format (docs/TRACES.md):
 *
 *   fdip_trace_convert --in workload.champsim.trace.xz \
 *       --out workload.fdip.trace [--max-insts <n>]
 *
 * The input streams through the canonicalizing reader (one full pass
 * unless capped). The output header's code range is backpatched to the
 * tight extent the input actually used.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "common/error.hh"
#include "trace/champsim.hh"
#include "trace/trace_file.hh"

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --in <path> --out <path> [--max-insts <n>]\n",
                 argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string in;
    std::string out;
    std::uint64_t max_insts = std::numeric_limits<std::uint64_t>::max();

    for (int i = 1; i < argc; ++i) {
        auto need = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: %s needs a value\n", argv[0],
                             flag);
                usage(argv[0]);
            }
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--in") == 0)
            in = need("--in");
        else if (std::strcmp(argv[i], "--out") == 0)
            out = need("--out");
        else if (std::strcmp(argv[i], "--max-insts") == 0)
            max_insts = std::strtoull(need("--max-insts"), nullptr, 10);
        else
            usage(argv[0]);
    }
    if (in.empty() || out.empty() || max_insts == 0)
        usage(argv[0]);
    if (!fdip::isChampSimTracePath(in)) {
        std::fprintf(stderr, "%s: '%s' is not a ChampSim trace "
                     "(*.champsim.trace or *.champsimtrace, optionally "
                     ".xz/.gz)\n", argv[0], in.c_str());
        return 1;
    }

    try {
        fdip::TraceFileWriter writer(out);
        fdip::ChampSimTraceReader reader(in);
        // One full pass over the source: the reader loops seamlessly,
        // so stop when it enters its second pass and the canonical
        // instructions of the first are drained.
        while (writer.written() < max_insts &&
               (reader.sourcePasses() == 0 || reader.hasPending())) {
            writer.append(reader.next());
        }
        std::printf("converted %llu champsim records -> %llu "
                    "canonical insts\n",
                    static_cast<unsigned long long>(reader.recordsRead()),
                    static_cast<unsigned long long>(writer.written()));

        writer.setCodeRange(reader.codeBase(), reader.allocatedEnd());
        writer.close();
        std::printf("wrote %s (code [%#llx, %#llx))\n", out.c_str(),
                    static_cast<unsigned long long>(reader.codeBase()),
                    static_cast<unsigned long long>(reader.allocatedEnd()));
    } catch (const fdip::SimError &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 1;
    }
    return 0;
}
