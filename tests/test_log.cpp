/**
 * @file
 * Unit tests for the logging helpers: a line written by one thread is
 * never torn by another thread writing at the same time.
 */

#include <gtest/gtest.h>

#include <regex>
#include <sstream>
#include <string>
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

    const std::regex whole("^warn: partitioner: thread [0-9]+ line [0-9]+$");
    std::istringstream in(captured);
    std::string line;
    int lines = 0;
    int torn = 0;
    while (std::getline(in, line)) {
        ++lines;
        if (!std::regex_match(line, whole))
            ++torn;
    }
    EXPECT_EQ(lines, kThreads * kLinesPerThread);
    EXPECT_EQ(torn, 0);
}
