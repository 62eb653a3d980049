#include "common/fault.hh"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/error.hh"
#include "common/logging.hh"

namespace fdip
{

namespace
{

struct TruncateFault
{
    std::uint64_t point;
    std::uint64_t afterRecords; ///< next() throws once this many delivered
};

/** truncate-trace@ default: far enough in that warmup is underway. */
constexpr std::uint64_t kDefaultTruncateAfter = 1024;

/** The armed plan. Written only by configure() (before a sweep runs);
 *  read lock-free from worker threads during the sweep. */
std::vector<std::uint64_t> throwFaults;
std::vector<std::uint64_t> hangFaults;
std::vector<std::uint64_t> corruptStores;
std::vector<TruncateFault> truncateFaults;
std::atomic<std::uint64_t> storeCounter{0};

struct PointContext
{
    bool active = false;
    std::uint64_t point = 0;
};

thread_local PointContext tlPoint;

/** Parse the decimal run at *s, advancing it. */
bool
parseNum(const char *&s, std::uint64_t &out)
{
    if (*s < '0' || *s > '9')
        return false;
    std::uint64_t v = 0;
    while (*s >= '0' && *s <= '9')
        v = v * 10 + static_cast<std::uint64_t>(*s++ - '0');
    out = v;
    return true;
}

bool
parseToken(const std::string &tok)
{
    const char *s = tok.c_str();
    auto eat = [&s](const char *prefix) {
        size_t n = std::string(prefix).size();
        if (std::string(s).compare(0, n, prefix) != 0)
            return false;
        s += n;
        return true;
    };
    std::uint64_t idx = 0;
    if (eat("throw@")) {
        if (!parseNum(s, idx) || *s != '\0')
            return false;
        throwFaults.push_back(idx);
        return true;
    }
    if (eat("hang@")) {
        if (!parseNum(s, idx) || *s != '\0')
            return false;
        hangFaults.push_back(idx);
        return true;
    }
    if (eat("corrupt-cache@")) {
        if (!parseNum(s, idx) || *s != '\0')
            return false;
        corruptStores.push_back(idx);
        return true;
    }
    if (eat("truncate-trace@")) {
        if (!parseNum(s, idx))
            return false;
        std::uint64_t after = kDefaultTruncateAfter;
        if (*s == 'x') {
            ++s;
            if (!parseNum(s, after))
                return false;
        }
        if (*s != '\0')
            return false;
        truncateFaults.push_back({idx, after});
        return true;
    }
    return false;
}

} // namespace

FaultInjector &
FaultInjector::instance()
{
    static FaultInjector injector;
    return injector;
}

FaultInjector::FaultInjector()
{
    const char *env = std::getenv("FDIP_FAULT");
    configure(env != nullptr ? env : "");
}

void
FaultInjector::configure(const std::string &spec)
{
    throwFaults.clear();
    hangFaults.clear();
    corruptStores.clear();
    truncateFaults.clear();
    storeCounter.store(0, std::memory_order_relaxed);
    size_t pos = 0;
    while (pos <= spec.size()) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string tok = spec.substr(pos, comma - pos);
        if (!tok.empty() && !parseToken(tok)) {
            warn("ignoring unrecognized FDIP_FAULT token '%s' (want "
                 "throw@<idx>, hang@<idx>, corrupt-cache@<n>, or "
                 "truncate-trace@<idx>[x<n>])",
                 tok.c_str());
        }
        pos = comma + 1;
    }
    armed_ = !throwFaults.empty() || !hangFaults.empty() ||
             !corruptStores.empty() || !truncateFaults.empty();
}

FaultInjector::PointScope::PointScope(std::uint64_t point_index)
{
    tlPoint.active = true;
    tlPoint.point = point_index;
}

FaultInjector::PointScope::~PointScope()
{
    tlPoint.active = false;
}

void
FaultInjector::maybeThrow()
{
    if (!armed_ || !tlPoint.active)
        return;
    for (std::uint64_t p : throwFaults) {
        if (p == tlPoint.point) {
            throw SimError(strprintf("injected fault: throw@%llu",
                                     static_cast<unsigned long long>(p)));
        }
    }
}

void
FaultInjector::maybeHang(double timeout_s)
{
    if (!armed_ || !tlPoint.active)
        return;
    bool hang = false;
    for (std::uint64_t p : hangFaults)
        hang = hang || p == tlPoint.point;
    if (!hang)
        return;
    auto start = std::chrono::steady_clock::now();
    for (;;) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        if (timeout_s <= 0.0)
            continue; // no deadline: a genuine hang
        std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        if (elapsed.count() > timeout_s) {
            throw SimTimeout(strprintf(
                "injected fault: hang@%llu exceeded wall deadline of "
                "%.1f s",
                static_cast<unsigned long long>(tlPoint.point),
                timeout_s));
        }
    }
}

void
FaultInjector::maybeTruncateTrace(std::uint64_t records_delivered,
                                  const std::string &path)
{
    if (!armed_ || !tlPoint.active)
        return;
    for (const TruncateFault &f : truncateFaults) {
        if (f.point == tlPoint.point &&
            records_delivered >= f.afterRecords) {
            throw SimError(strprintf(
                "injected fault: truncate-trace@%llu — trace '%s' died "
                "mid-stream after %llu records",
                static_cast<unsigned long long>(f.point), path.c_str(),
                static_cast<unsigned long long>(records_delivered)));
        }
    }
}

bool
FaultInjector::corruptThisStore()
{
    if (!armed_ || corruptStores.empty())
        return false;
    std::uint64_t n = storeCounter.fetch_add(1, std::memory_order_relaxed);
    for (std::uint64_t c : corruptStores) {
        if (c == n)
            return true;
    }
    return false;
}

} // namespace fdip
