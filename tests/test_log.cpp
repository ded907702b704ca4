/**
 * @file
 * Unit tests for the logging helpers: a line written by one thread is
 * never torn by another thread writing at the same time.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/log.hpp"

using namespace minnoc;

TEST(Log, ConcurrentWarnLinesStayWhole)
{
    constexpr int kThreads = 8;
    constexpr int kLinesPerThread = 2000;

    testing::internal::CaptureStderr();
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t] {
            for (int i = 0; i < kLinesPerThread; ++i)
                warn("partitioner: thread ", t, " line ", i);
        });
    }
    for (auto &th : threads)
        th.join();
    const auto captured = testing::internal::GetCapturedStderr();

    // The whole line is "warn: partitioner: thread <digits> line
    // <digits>", nothing before, between or after.
    const auto whole = [](const std::string &line) {
        std::size_t at = 0;
        const auto literal = [&](std::string_view text) {
            if (line.compare(at, text.size(), text) != 0)
                return false;
            at += text.size();
            return true;
        };
        const auto digits = [&] {
            const std::size_t from = at;
            while (at < line.size() && line[at] >= '0' && line[at] <= '9')
                ++at;
            return at > from;
        };
        return literal("warn: partitioner: thread ") && digits() &&
               literal(" line ") && digits() && at == line.size();
    };
    std::istringstream in(captured);
    std::string line;
    int lines = 0;
    int torn = 0;
    while (std::getline(in, line)) {
        ++lines;
        if (!whole(line))
            ++torn;
    }
    EXPECT_EQ(lines, kThreads * kLinesPerThread);
    EXPECT_EQ(torn, 0);
}
