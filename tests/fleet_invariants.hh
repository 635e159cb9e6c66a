/**
 * @file
 * The per-request, aggregate and cost-accounting invariants every
 * fleet run must satisfy, shared by the fleet test suites.
 */

#ifndef HERMES_TESTS_FLEET_INVARIANTS_HH
#define HERMES_TESTS_FLEET_INVARIANTS_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include <gtest/gtest.h>

#include "core/fleet.hh"

namespace hermes::fleet {

inline void
checkReportInvariants(const FleetReport &report,
                      std::size_t trace_size)
{
    EXPECT_EQ(report.requests.size(), trace_size);
    EXPECT_EQ(report.assignment.size(), trace_size);

    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    for (std::size_t i = 0; i < report.requests.size(); ++i) {
        const serving::RequestMetrics &request =
            report.requests[i];
        if (request.rejected) {
            ++rejected;
            // Rejected (or shed) => no lifecycle timestamps.
            EXPECT_DOUBLE_EQ(request.admitted, 0.0);
            EXPECT_DOUBLE_EQ(request.firstToken, 0.0);
            EXPECT_DOUBLE_EQ(request.completed, 0.0);
            EXPECT_EQ(request.tokens, 0u);
        } else {
            ++completed;
            EXPECT_LE(request.arrival, request.admitted);
            EXPECT_LE(request.admitted, request.firstToken);
            EXPECT_LE(request.firstToken, request.completed);
            EXPECT_GE(report.assignment[i], 0);
        }
        if (report.assignment[i] < 0) {
            EXPECT_TRUE(request.rejected);
        }
    }
    EXPECT_EQ(report.completed, completed);
    EXPECT_EQ(report.rejected, rejected);
    EXPECT_EQ(report.completed + report.rejected, trace_size);
    EXPECT_LE(report.shed, report.rejected);

    // Fleet aggregates are exactly the replica aggregates.
    double throughput = 0.0;
    Seconds makespan = 0.0;
    std::uint64_t replica_completed = 0;
    for (const serving::ServingReport &replica :
         report.replicaReports) {
        throughput += replica.throughputTps;
        makespan = std::max(makespan, replica.makespan);
        replica_completed += replica.completed;
    }
    EXPECT_DOUBLE_EQ(report.throughputTps, throughput);
    EXPECT_DOUBLE_EQ(report.makespan, makespan);
    EXPECT_EQ(report.completed, replica_completed);

    // The cost accounting must cohere: one active-seconds entry per
    // replica report, the fleet total is exactly their sum, and
    // cost-per-request is that total over the completions.
    ASSERT_EQ(report.replicaActiveSeconds.size(),
              report.replicaReports.size());
    double replica_seconds = 0.0;
    for (const Seconds active : report.replicaActiveSeconds) {
        EXPECT_GE(active, 0.0);
        replica_seconds += active;
    }
    EXPECT_DOUBLE_EQ(report.replicaSeconds, replica_seconds);
    if (report.completed > 0) {
        EXPECT_DOUBLE_EQ(report.costPerRequest,
                         report.replicaSeconds /
                             static_cast<double>(report.completed));
    }
}

} // namespace hermes::fleet

#endif // HERMES_TESTS_FLEET_INVARIANTS_HH
