/**
 * @file
 * Unit tests for Comm packing and the communication clique set.
 */

#include <gtest/gtest.h>

#include <unordered_set>

#include "core/clique_set.hpp"

using namespace minnoc::core;

TEST(Comm, KeyRoundTrip)
{
    const Comm c(123456, 654321);
    EXPECT_EQ(Comm::fromKey(c.key()), c);
}

TEST(Comm, OrderingSrcMajor)
{
    EXPECT_LT(Comm(0, 5), Comm(1, 0));
    EXPECT_LT(Comm(1, 0), Comm(1, 1));
}

TEST(Comm, ReversedSwaps)
{
    EXPECT_EQ(Comm(3, 7).reversed(), Comm(7, 3));
}

TEST(Comm, HashDistinguishes)
{
    std::unordered_set<Comm> set;
    set.insert(Comm(1, 2));
    set.insert(Comm(2, 1));
    set.insert(Comm(1, 2));
    EXPECT_EQ(set.size(), 2u);
}

TEST(CliqueSet, InternDeduplicates)
{
    CliqueSet ks(4);
    const CommId a = ks.internComm(Comm(0, 1));
    const CommId b = ks.internComm(Comm(0, 1));
    const CommId c = ks.internComm(Comm(1, 0));
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_EQ(ks.numComms(), 2u);
    EXPECT_EQ(ks.findComm(Comm(0, 1)), a);
    EXPECT_EQ(ks.findComm(Comm(2, 3)), CliqueSet::kNoComm);
}

TEST(CliqueSet, AddCliqueSortsAndDedups)
{
    CliqueSet ks(4);
    EXPECT_TRUE(ks.addClique({Comm(2, 3), Comm(0, 1), Comm(2, 3)}));
    ASSERT_EQ(ks.numCliques(), 1u);
    const auto &k = ks.cliques()[0];
    EXPECT_EQ(k.size(), 2u);
    EXPECT_TRUE(std::is_sorted(k.comms.begin(), k.comms.end()));
}

TEST(CliqueSet, DuplicateCliqueDropped)
{
    CliqueSet ks(4);
    EXPECT_TRUE(ks.addClique({Comm(0, 1), Comm(2, 3)}));
    EXPECT_FALSE(ks.addClique({Comm(2, 3), Comm(0, 1)}));
    EXPECT_EQ(ks.numCliques(), 1u);
}

TEST(CliqueSet, EmptyCliqueRejected)
{
    CliqueSet ks(4);
    EXPECT_FALSE(ks.addClique({}));
    EXPECT_EQ(ks.numCliques(), 0u);
}

TEST(CliqueSet, MaxCliqueSize)
{
    CliqueSet ks(8);
    ks.addClique({Comm(0, 1)});
    ks.addClique({Comm(0, 1), Comm(2, 3), Comm(4, 5)});
    EXPECT_EQ(ks.maxCliqueSize(), 3u);
}

TEST(CliqueSet, ReduceRemovesDominated)
{
    // The paper's own example: {(1,2),(2,3)} is covered by
    // {(1,2),(2,3),(3,4)} and should be removed.
    CliqueSet ks(8);
    ks.addClique({Comm(1, 2), Comm(2, 3)});
    ks.addClique({Comm(1, 2), Comm(2, 3), Comm(3, 4)});
    ks.addClique({Comm(5, 6)});
    EXPECT_EQ(ks.reduceToMaximum(), 1u);
    EXPECT_EQ(ks.numCliques(), 2u);
    EXPECT_EQ(ks.maxCliqueSize(), 3u);
}

TEST(CliqueSet, ReduceKeepsIncomparableCliques)
{
    CliqueSet ks(8);
    ks.addClique({Comm(0, 1), Comm(2, 3)});
    ks.addClique({Comm(0, 1), Comm(4, 5)});
    EXPECT_EQ(ks.reduceToMaximum(), 0u);
    EXPECT_EQ(ks.numCliques(), 2u);
}

TEST(CliqueSet, ContendReflectsCoMembership)
{
    CliqueSet ks(8);
    const CommId a = ks.internComm(Comm(0, 1));
    const CommId b = ks.internComm(Comm(2, 3));
    const CommId c = ks.internComm(Comm(4, 5));
    ks.addCliqueByIds({a, b});
    ks.addCliqueByIds({c});
    EXPECT_TRUE(ks.contend(a, b));
    EXPECT_TRUE(ks.contend(b, a));
    EXPECT_FALSE(ks.contend(a, c));
    EXPECT_FALSE(ks.contend(a, a));
}

TEST(CliqueSet, ContendIndexInvalidatedOnMutation)
{
    CliqueSet ks(8);
    const CommId a = ks.internComm(Comm(0, 1));
    const CommId b = ks.internComm(Comm(2, 3));
    ks.addCliqueByIds({a});
    EXPECT_FALSE(ks.contend(a, b));
    ks.addCliqueByIds({a, b});
    EXPECT_TRUE(ks.contend(a, b)); // rebuilt after the new clique
}

TEST(CliqueSet, ReverseOfPairsMirroredComms)
{
    CliqueSet ks(8);
    const CommId a = ks.internComm(Comm(0, 1));
    const CommId b = ks.internComm(Comm(2, 3));
    const CommId self = ks.internComm(Comm(4, 4));
    ks.addCliqueByIds({a, b, self});
    EXPECT_EQ(ks.reverseOf(a), CliqueSet::kNoComm); // (1, 0) not yet seen
    const CommId ra = ks.internComm(Comm(1, 0));
    ks.addCliqueByIds({ra});
    EXPECT_EQ(ks.reverseOf(a), ra); // rebuilt after the new comm
    EXPECT_EQ(ks.reverseOf(ra), a);
    EXPECT_EQ(ks.reverseOf(b), CliqueSet::kNoComm);
    EXPECT_EQ(ks.reverseOf(self), CliqueSet::kNoComm);
}

TEST(CliqueSet, ContentionSetTuples)
{
    CliqueSet ks(8);
    ks.addClique({Comm(0, 1), Comm(2, 3)});
    const auto tuples = ks.contentionSet();
    // Symmetric closure: both orders present.
    EXPECT_EQ(tuples.size(), 2u);
    EXPECT_EQ(tuples[0], (std::array<ProcId, 4>{0, 1, 2, 3}));
    EXPECT_EQ(tuples[1], (std::array<ProcId, 4>{2, 3, 0, 1}));
}

TEST(CliqueSet, AddCliqueByIdsValidatesRange)
{
    CliqueSet ks(4);
    EXPECT_DEATH(ks.addCliqueByIds({99}), "unknown comm id");
}

TEST(CliqueSet, ToStringListsCliques)
{
    CliqueSet ks(4);
    ks.addClique({Comm(0, 1)});
    const auto text = ks.toString();
    EXPECT_NE(text.find("(0,1)"), std::string::npos);
}
