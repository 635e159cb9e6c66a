#include "spans.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>

#include <sys/resource.h>

namespace perfbench {

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuNow()
{
    timespec now{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
    return static_cast<double>(now.tv_sec) +
           static_cast<double>(now.tv_nsec) * 1e-9;
}

double
peakRssMib()
{
    rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB.
}

int
Tracer::begin(const char *name, std::uint64_t id)
{
    if (!enabled_)
        return -1;
    Open open{name, id, 0.0, 0.0, -1,
              stack_.empty() ? -1 : stack_.back().stored};
    std::size_t &kept = storedPerName_[open.name];
    if (kept < kMaxStoredPerName) {
        ++kept;
        open.stored = static_cast<int>(stored_.size());
        stored_.push_back(
            Stored{open.name, id, 0.0, 0.0, open.parentStored});
    } else {
        ++dropped_;
    }
    stack_.push_back(std::move(open));
    // Read the clock last, so the bookkeeping above is not billed.
    stack_.back().start = wallNow();
    return static_cast<int>(stack_.size()) - 1;
}

void
Tracer::end(int handle)
{
    if (!enabled_)
        return;
    const double now = wallNow();
    if (handle != static_cast<int>(stack_.size()) - 1) {
        std::fprintf(stderr, "perfbench: span closed out of order\n");
        std::abort();
    }
    const Open &open = stack_.back();
    const double duration = now - open.start;
    SpanTotals &totals = totals_[open.name];
    ++totals.count;
    totals.seconds += duration;
    totals.selfSeconds += duration - open.childSeconds;
    if (open.stored >= 0) {
        stored_[static_cast<std::size_t>(open.stored)].start =
            open.start;
        stored_[static_cast<std::size_t>(open.stored)].end = now;
    }
    stack_.pop_back();
    if (!stack_.empty())
        stack_.back().childSeconds += duration;
}

SpanTotals
Tracer::total(const std::string &name) const
{
    const auto it = totals_.find(name);
    return it == totals_.end() ? SpanTotals{} : it->second;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (file == nullptr)
        return false;
    const double origin = stored_.empty() ? 0.0 : stored_.front().start;
    std::fprintf(file, "{\"displayTimeUnit\": \"ms\", "
                       "\"otherData\": {\"dropped_spans\": %llu}, "
                       "\"traceEvents\": [\n",
                 static_cast<unsigned long long>(dropped_));
    for (std::size_t i = 0; i < stored_.size(); ++i) {
        const Stored &span = stored_[i];
        std::fprintf(file,
                     "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"span\": %zu, \"parent\": %d, "
                     "\"id\": %llu}}%s\n",
                     span.name.c_str(), (span.start - origin) * 1e6,
                     (span.end - span.start) * 1e6, i, span.parent,
                     static_cast<unsigned long long>(span.id),
                     i + 1 < stored_.size() ? "," : "");
    }
    std::fprintf(file, "]}\n");
    return std::fclose(file) == 0;
}

} // namespace perfbench
