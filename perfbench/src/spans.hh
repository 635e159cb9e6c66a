/**
 * @file
 * Host clocks and the benchmark's in-memory span recorder.
 *
 * Spans are recorded only by the benchmark's own code, around the
 * public calls it makes into each layer of the simulator.  A span has
 * a name, a start, an end, a parent (the span open when it began) and
 * an id (run or request id).  Self time — a span's duration minus the
 * time its children cover — is accumulated per name as spans close,
 * so the summary covers every span even though only the first
 * kMaxStoredPerName of each name are kept for the Chrome trace-event
 * export that Perfetto opens.
 *
 * All recording happens on the calling thread; the recorder is not
 * thread-safe and the benchmark never shares one across threads.
 */
#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic wall-clock seconds (steady_clock). */
double wallNow();

/** CPU seconds of the whole process, all threads (user + system). */
double cpuNow();

/** Peak resident set size of the process in MiB. */
double peakRssMib();

/** Per-name totals over every closed span. */
struct SpanTotals
{
    std::uint64_t count = 0;
    double seconds = 0.0;     ///< Sum of durations.
    double selfSeconds = 0.0; ///< Durations minus child coverage.
};

class Tracer
{
  public:
    /** Spans kept per name for the trace-event export. */
    static constexpr std::size_t kMaxStoredPerName = 4000;

    /** A disabled tracer records nothing and costs one branch. */
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span; returns a handle for end() (-1 when disabled). */
    int begin(const char *name, std::uint64_t id = 0);

    /** Close the innermost open span, which must be `handle`. */
    void end(int handle);

    /** Totals for one name (zeros when it never occurred). */
    SpanTotals total(const std::string &name) const;

    /**
     * Write the stored spans as Chrome trace-event JSON ("X" complete
     * events, microseconds, parent and id in args).  False on I/O
     * failure.
     */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Open
    {
        std::string name;
        std::uint64_t id;
        double start;
        double childSeconds;
        int stored; ///< Index into stored_, or -1 when over the cap.
        int parentStored;
    };
    struct Stored
    {
        std::string name;
        std::uint64_t id;
        double start;
        double end;
        int parent;
    };

    bool enabled_;
    std::vector<Open> stack_;
    std::vector<Stored> stored_;
    std::map<std::string, std::size_t> storedPerName_;
    std::map<std::string, SpanTotals> totals_;
    std::uint64_t dropped_ = 0;
};

/** RAII span; a no-op on a disabled tracer. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name, std::uint64_t id = 0)
        : tracer_(tracer), handle_(tracer.begin(name, id))
    {
    }
    ~ScopedSpan() { tracer_.end(handle_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &tracer_;
    int handle_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
