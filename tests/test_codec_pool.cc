/**
 * @file
 * Tests for CodecPool: every item of a batch runs exactly once with
 * any helper count, small batches stay on the calling thread, helpers
 * start only for a batch with work for them, and an exception an item
 * throws reaches the caller with the pool still usable (the batch's
 * other items may or may not have run).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "swap/codec_pool.hh"
#include "telemetry/trace_log.hh"

using namespace ariadne;

TEST(CodecPool, RunsEveryItemOnceWithAnyHelperCount)
{
    for (std::size_t helpers : {0u, 1u, 3u}) {
        CodecPool pool(helpers, "t");
        EXPECT_EQ(pool.helpers(), helpers);
        CodecScratch caller;
        // Back-to-back batches of every size exercise the hand-over
        // between one batch's helpers and the next.
        for (int round = 0; round < 50; ++round) {
            for (std::size_t items : {0u, 1u, 2u, 7u, 100u}) {
                std::vector<std::atomic<int>> runs(items);
                pool.run(items, caller,
                         [&](std::size_t i, CodecScratch &) {
                             runs[i].fetch_add(1);
                         });
                EXPECT_TRUE(std::all_of(
                    runs.begin(), runs.end(),
                    [](const std::atomic<int> &r) { return r == 1; }))
                    << "helpers=" << helpers << " items=" << items;
            }
        }
    }
}

TEST(CodecPool, SingleItemBatchesRunOnTheCallingThread)
{
    CodecPool pool(3, "t");
    CodecScratch caller;
    bool inline_only = true;
    const std::thread::id self = std::this_thread::get_id();
    for (int round = 0; round < 10; ++round) {
        pool.run(1, caller, [&](std::size_t, CodecScratch &s) {
            inline_only = inline_only && &s == &caller &&
                          std::this_thread::get_id() == self;
        });
    }
    EXPECT_TRUE(inline_only);
}

TEST(CodecPool, HelpersStartOnlyForABatchWithWorkForThem)
{
    using telemetry::TraceLog;
    auto helper_names = [] {
        std::vector<std::string> out;
        for (const auto &[tid, name] : TraceLog::global().threadNames()) {
            if (name.starts_with("codec helper "))
                out.push_back(name);
        }
        std::sort(out.begin(), out.end());
        return out;
    };
    telemetry::setTraceEnabled(true);
    TraceLog::global().clear();
    {
        CodecPool idle(2, "idle");
        CodecScratch caller;
        idle.run(1, caller, [](std::size_t, CodecScratch &) {});
    }
    EXPECT_TRUE(helper_names().empty());
    {
        CodecPool busy(2, "7");
        CodecScratch caller;
        busy.run(2, caller, [](std::size_t, CodecScratch &) {});
    } // joined here, so both have named themselves
    EXPECT_EQ(helper_names(),
              (std::vector<std::string>{"codec helper 7.0",
                                        "codec helper 7.1"}));
    telemetry::setTraceEnabled(false);
    TraceLog::global().clear();
}

TEST(CodecPool, ItemExceptionReachesTheCaller)
{
    CodecPool pool(3, "t");
    CodecScratch caller;
    for (std::size_t bad : {0u, 5u, 63u}) {
        EXPECT_THROW(pool.run(64, caller,
                              [&](std::size_t i, CodecScratch &) {
                                  if (i == bad)
                                      throw std::runtime_error("bad");
                              }),
                     std::runtime_error)
            << "bad=" << bad;
    }
    // Still usable afterwards.
    std::atomic<int> ran{0};
    pool.run(10, caller,
             [&](std::size_t, CodecScratch &) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 10);
}
