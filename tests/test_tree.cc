/**
 * @file
 * ORAM tree geometry tests: bucket indexing, path enumeration, common
 * prefix levels, and the NVM layout.
 */

#include <gtest/gtest.h>

#include <set>

#include "oram/tree.hh"

namespace psoram {
namespace {

TEST(TreeGeometry, BasicCounts)
{
    const TreeGeometry geo{3, 2}; // the Figure 1 example: L=3, Z=2
    EXPECT_EQ(geo.levels(), 4u);
    EXPECT_EQ(geo.numLeaves(), 8u);
    EXPECT_EQ(geo.numBuckets(), 15u);
    EXPECT_EQ(geo.numSlots(), 30u);
    EXPECT_EQ(geo.blocksPerPath(), 8u);
    EXPECT_EQ(geo.dataBlocks(0.5), 15u);
}

TEST(TreeGeometry, PaperConfigSizes)
{
    const TreeGeometry geo{23, 4}; // Table 3b
    EXPECT_EQ(geo.numLeaves(), 1ULL << 23);
    EXPECT_EQ(geo.blocksPerPath(), 96u); // Z*(L+1), the WPQ size
    // 2^26-ish slots at 64B data = the paper's 4GB tree / 2GB data.
    EXPECT_EQ(geo.dataBlocks(0.5) * 64, 2147483520ULL); // ~2 GB
}

TEST(TreeGeometry, RootIsOnEveryPath)
{
    const TreeGeometry geo{4, 4};
    for (PathId leaf = 0; leaf < geo.numLeaves(); ++leaf)
        EXPECT_EQ(geo.bucketAt(leaf, 0), 0u);
}

TEST(TreeGeometry, LeafBucketsAreDistinct)
{
    const TreeGeometry geo{4, 4};
    std::set<BucketId> buckets;
    for (PathId leaf = 0; leaf < geo.numLeaves(); ++leaf)
        buckets.insert(geo.bucketAt(leaf, geo.height));
    EXPECT_EQ(buckets.size(), geo.numLeaves());
}

TEST(TreeGeometry, PathBucketsChainParentChild)
{
    const TreeGeometry geo{6, 4};
    const std::vector<BucketId> path = geo.pathBuckets(37);
    ASSERT_EQ(path.size(), geo.levels());
    EXPECT_EQ(path[0], 0u);
    for (std::size_t i = 1; i < path.size(); ++i) {
        // child = 2*parent+1 or 2*parent+2 in the breadth-first array
        EXPECT_TRUE(path[i] == 2 * path[i - 1] + 1 ||
                    path[i] == 2 * path[i - 1] + 2)
            << "level " << i;
    }
}

TEST(TreeGeometry, CommonLevelProperties)
{
    const TreeGeometry geo{5, 4};
    for (PathId a = 0; a < geo.numLeaves(); a += 3) {
        EXPECT_EQ(geo.commonLevel(a, a), geo.height);
        for (PathId b = 0; b < geo.numLeaves(); b += 5) {
            const unsigned ab = geo.commonLevel(a, b);
            EXPECT_EQ(ab, geo.commonLevel(b, a)); // symmetric
            // The buckets at the common level coincide...
            EXPECT_EQ(geo.bucketAt(a, ab), geo.bucketAt(b, ab));
            // ...and diverge one level deeper.
            if (ab < geo.height) {
                EXPECT_NE(geo.bucketAt(a, ab + 1),
                          geo.bucketAt(b, ab + 1));
            }
        }
    }
}

TEST(TreeGeometry, SiblingLeavesShareAllButLastLevel)
{
    const TreeGeometry geo{5, 4};
    EXPECT_EQ(geo.commonLevel(6, 7), geo.height - 1);
    EXPECT_EQ(geo.commonLevel(0, geo.numLeaves() - 1), 0u);
}

TEST(TreeGeometry, LeafUnderIsInverseOfBucketAt)
{
    const TreeGeometry geo{5, 4};
    for (BucketId bucket = 0; bucket < geo.numBuckets(); ++bucket) {
        const PathId leaf = geo.leafUnder(bucket);
        bool on_path = false;
        for (unsigned level = 0; level <= geo.height; ++level)
            on_path |= (geo.bucketAt(leaf, level) == bucket);
        EXPECT_TRUE(on_path) << "bucket " << bucket;
    }
}

TEST(TreeGeometry, OutOfRangePanics)
{
    const TreeGeometry geo{3, 4};
    EXPECT_DEATH(geo.bucketAt(0, 4), "beyond tree height");
    EXPECT_DEATH(geo.bucketAt(8, 0), "out of range");
    EXPECT_DEATH(geo.leafUnder(geo.numBuckets()), "out of range");
}

TEST(TreeLayout, SlotAddressesAreDisjointAndOrdered)
{
    TreeLayout layout;
    layout.geometry = TreeGeometry{3, 2};
    layout.base = 4096;
    std::set<Addr> addresses;
    for (BucketId bucket = 0; bucket < layout.geometry.numBuckets();
         ++bucket) {
        for (unsigned slot = 0; slot < 2; ++slot) {
            const Addr addr = layout.slotAddr(bucket, slot);
            EXPECT_GE(addr, layout.base);
            EXPECT_LT(addr, layout.base + layout.footprintBytes());
            EXPECT_TRUE(addresses.insert(addr).second);
            // Slots are kSlotBytes apart.
            EXPECT_EQ((addr - layout.base) % kSlotBytes, 0u);
        }
    }
    EXPECT_EQ(addresses.size(), layout.geometry.numSlots());
}

} // namespace
} // namespace psoram
