#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/units.hpp"
#include "net/network.hpp"
#include "storage/device.hpp"
#include "storage/file.hpp"

namespace frieda::storage {
namespace {

TEST(FileCatalog, AddAndLookup) {
  FileCatalog cat;
  const auto a = cat.add_file("img_000.tif", 7 * MB);
  const auto b = cat.add_file("img_001.tif", 8 * MB);
  EXPECT_EQ(cat.count(), 2u);
  EXPECT_EQ(cat.info(a).name, "img_000.tif");
  EXPECT_EQ(cat.info(b).size, 8 * MB);
  EXPECT_EQ(cat.total_bytes(), 15 * MB);
  EXPECT_EQ(cat.all_ids(), (std::vector<FileId>{0, 1}));
  EXPECT_THROW(cat.info(7), FriedaError);
}

TEST(ReplicaMap, AddRemoveQuery) {
  ReplicaMap rm;
  rm.add(0, 1);
  rm.add(0, 2);
  rm.add(1, 1);
  EXPECT_TRUE(rm.has(0, 1));
  EXPECT_FALSE(rm.has(1, 2));
  EXPECT_EQ(rm.replica_count(0), 2u);
  EXPECT_EQ(rm.nodes_with(0), (std::vector<net::NodeId>{1, 2}));
  EXPECT_EQ(rm.files_on(1), (std::vector<FileId>{0, 1}));
  rm.remove(0, 1);
  EXPECT_FALSE(rm.has(0, 1));
  EXPECT_EQ(rm.replica_count(0), 1u);
  rm.remove(0, 99);  // no-op
}

TEST(ReplicaMap, AddIsIdempotent) {
  ReplicaMap rm;
  rm.add(3, 7);
  rm.add(3, 7);
  EXPECT_EQ(rm.replica_count(3), 1u);
}

TEST(ReplicaMap, DropNodeForgetsTransientData) {
  ReplicaMap rm;
  rm.add(0, 1);
  rm.add(1, 1);
  rm.add(0, 2);
  rm.drop_node(1);
  EXPECT_FALSE(rm.has(0, 1));
  EXPECT_FALSE(rm.has(1, 1));
  EXPECT_TRUE(rm.has(0, 2));
  EXPECT_TRUE(rm.files_on(1).empty());
}

TEST(ReplicaMap, BytesOnNode) {
  FileCatalog cat;
  cat.add_file("a", 5 * MB);
  cat.add_file("b", 3 * MB);
  ReplicaMap rm;
  rm.add(0, 4);
  rm.add(1, 4);
  EXPECT_EQ(rm.bytes_on(4, cat), 8 * MB);
  EXPECT_EQ(rm.bytes_on(9, cat), 0u);
}

TEST(ReplicaMap, FileOnEveryNode) {
  // The pre_place_dataset shape: every file seeded on every node.
  ReplicaMap rm;
  const std::vector<net::NodeId> nodes{0, 2, 5, 9};
  for (const auto n : nodes) {
    for (FileId f = 0; f < 3; ++f) rm.add(f, n);
  }
  for (FileId f = 0; f < 3; ++f) {
    EXPECT_EQ(rm.nodes_with(f), nodes);
    EXPECT_EQ(rm.replica_count(f), nodes.size());
    for (const auto n : nodes) EXPECT_TRUE(rm.has(f, n));
    EXPECT_FALSE(rm.has(f, 1));
  }
  for (const auto n : nodes) EXPECT_EQ(rm.files_on(n), (std::vector<FileId>{0, 1, 2}));
  rm.drop_node(5);
  EXPECT_EQ(rm.nodes_with(1), (std::vector<net::NodeId>{0, 2, 9}));
  EXPECT_TRUE(rm.files_on(5).empty());
}

TEST(ReplicaMap, OutOfOrderAddsStaySorted) {
  ReplicaMap rm;
  rm.add(4, 8);
  rm.add(2, 8);
  rm.add(4, 3);
  rm.add(3, 8);
  rm.add(4, 5);
  EXPECT_EQ(rm.nodes_with(4), (std::vector<net::NodeId>{3, 5, 8}));
  EXPECT_EQ(rm.files_on(8), (std::vector<FileId>{2, 3, 4}));
}

TEST(ReplicaMap, RemovingLastAndAbsentReplicas) {
  ReplicaMap rm;
  rm.add(0, 1);
  rm.remove(0, 1);  // the last replica
  EXPECT_FALSE(rm.has(0, 1));
  EXPECT_EQ(rm.replica_count(0), 0u);
  EXPECT_TRUE(rm.nodes_with(0).empty());
  EXPECT_TRUE(rm.files_on(1).empty());
  rm.remove(0, 1);    // already gone: no-op
  rm.remove(7, 1);    // file never added: no-op
  rm.remove(0, 42);   // node never seen: no-op
  EXPECT_EQ(rm.replica_count(0), 0u);
  EXPECT_EQ(rm.replica_count(7), 0u);
}

TEST(ReplicaMap, UnknownIdsAreEmpty) {
  ReplicaMap rm;
  EXPECT_FALSE(rm.has(0, 0));
  EXPECT_TRUE(rm.nodes_with(12).empty());
  EXPECT_EQ(rm.replica_count(12), 0u);
  EXPECT_TRUE(rm.files_on(12).empty());
  rm.add(1, 2);
  EXPECT_FALSE(rm.has(100, 2));  // file id past the table
  EXPECT_FALSE(rm.has(1, 100));  // node id past the table
  EXPECT_FALSE(rm.has(0, 2));    // inside the table, never added
  EXPECT_TRUE(rm.nodes_with(100).empty());
  EXPECT_EQ(rm.replica_count(100), 0u);
  rm.drop_node(100);  // unknown node: no-op
  EXPECT_TRUE(rm.has(1, 2));
}

TEST(ReplicaMap, ReAddAfterDropNode) {
  ReplicaMap rm;
  rm.add(0, 3);
  rm.add(1, 3);
  rm.add(0, 4);
  rm.drop_node(3);
  rm.add(1, 3);
  EXPECT_TRUE(rm.has(1, 3));
  EXPECT_FALSE(rm.has(0, 3));
  EXPECT_EQ(rm.files_on(3), (std::vector<FileId>{1}));
  EXPECT_EQ(rm.nodes_with(0), (std::vector<net::NodeId>{4}));
  EXPECT_EQ(rm.nodes_with(1), (std::vector<net::NodeId>{3}));
}

TEST(ReplicaMap, BytesOnAfterRemovals) {
  FileCatalog cat;
  cat.add_file("a", 5 * MB);
  cat.add_file("b", 3 * MB);
  cat.add_file("c", 2 * MB);
  ReplicaMap rm;
  for (FileId f = 0; f < 3; ++f) rm.add(f, 4);
  EXPECT_EQ(rm.bytes_on(4, cat), 10 * MB);
  rm.remove(1, 4);
  EXPECT_EQ(rm.bytes_on(4, cat), 7 * MB);
  rm.remove(1, 4);  // absent: unchanged
  EXPECT_EQ(rm.bytes_on(4, cat), 7 * MB);
  rm.remove(0, 4);
  rm.remove(2, 4);
  EXPECT_EQ(rm.bytes_on(4, cat), 0u);
}

TEST(StorageDevice, CapacityAccounting) {
  sim::Simulation sim;
  LocalDisk disk(sim, mBps(100), mBps(100), 10 * MB);
  EXPECT_EQ(disk.capacity(), 10 * MB);
  EXPECT_TRUE(disk.allocate(6 * MB));
  EXPECT_EQ(disk.used(), 6 * MB);
  EXPECT_EQ(disk.available(), 4 * MB);
  EXPECT_FALSE(disk.allocate(5 * MB));  // over budget
  disk.release(2 * MB);
  EXPECT_TRUE(disk.allocate(5 * MB));
  EXPECT_THROW(disk.release(100 * MB), FriedaError);
}

TEST(LocalDisk, ReadTakesBytesOverBandwidth) {
  sim::Simulation sim;
  LocalDisk disk(sim, mBps(100), mBps(50), GiB);
  IoResult r_read, r_write;
  sim.spawn([](LocalDisk& d, IoResult& rr, IoResult& rw) -> sim::Task<> {
    rr = co_await d.read(200 * MB);   // 2 s
    rw = co_await d.write(200 * MB);  // 4 s
  }(disk, r_read, r_write));
  sim.run();
  EXPECT_TRUE(r_read.ok);
  EXPECT_NEAR(r_read.duration, 2.0, 1e-9);
  EXPECT_TRUE(r_write.ok);
  EXPECT_NEAR(r_write.duration, 4.0, 1e-9);
}

TEST(LocalDisk, ConcurrentReadsShareBandwidth) {
  sim::Simulation sim;
  LocalDisk disk(sim, mBps(100), mBps(100), GiB);
  std::vector<IoResult> results(2);
  for (auto& r : results) {
    sim.spawn([](LocalDisk& d, IoResult& out) -> sim::Task<> {
      out = co_await d.read(100 * MB);
    }(disk, r));
  }
  sim.run();
  EXPECT_NEAR(results[0].duration, 2.0, 1e-9);  // half rate each
  EXPECT_NEAR(results[1].duration, 2.0, 1e-9);
}

TEST(LocalDisk, FailAbortsInFlightIo) {
  sim::Simulation sim;
  LocalDisk disk(sim, mBps(10), mBps(10), GiB);
  IoResult result;
  sim.spawn([](LocalDisk& d, IoResult& out) -> sim::Task<> {
    out = co_await d.read(GB);  // 100 s alone
  }(disk, result));
  sim.schedule_at(5.0, [&] { disk.fail(); });
  sim.run();
  EXPECT_FALSE(result.ok);
  EXPECT_NEAR(result.duration, 5.0, 1e-9);

  // After failure, new I/O fails instantly until restore().
  IoResult after;
  sim.spawn([](LocalDisk& d, IoResult& out) -> sim::Task<> {
    out = co_await d.read(MB);
  }(disk, after));
  sim.run();
  EXPECT_FALSE(after.ok);
  disk.restore();
  sim.spawn([](LocalDisk& d, IoResult& out) -> sim::Task<> {
    out = co_await d.read(MB);
  }(disk, after));
  sim.run();
  EXPECT_TRUE(after.ok);
}

TEST(SharedService, ZeroBytesImmediate) {
  sim::Simulation sim;
  SharedService svc(sim, mBps(1));
  IoResult result{false, 99.0};
  sim.spawn([](SharedService& s, IoResult& out) -> sim::Task<> {
    out = co_await s.submit(0);
  }(svc, result));
  sim.run();
  EXPECT_TRUE(result.ok);
  EXPECT_DOUBLE_EQ(result.duration, 0.0);
  EXPECT_EQ(svc.active(), 0u);
}

net::Topology two_nodes() {
  net::Topology t;
  t.add_node("server", mbps(1000), mbps(1000));
  t.add_node("host", mbps(100), mbps(100));
  return t;
}

TEST(NetworkVolume, IoRidesTheNetwork) {
  sim::Simulation sim;
  net::Network netw(sim, two_nodes(), 0.0);
  NetworkVolume vol(netw, /*server=*/0, /*host=*/1, GiB);
  IoResult r_read, r_write;
  sim.spawn([](NetworkVolume& v, IoResult& rr, IoResult& rw) -> sim::Task<> {
    rr = co_await v.read(125 * MB);   // host ingress 12.5 MB/s => 10 s
    rw = co_await v.write(125 * MB);  // host egress 12.5 MB/s => 10 s
  }(vol, r_read, r_write));
  sim.run();
  EXPECT_TRUE(r_read.ok);
  EXPECT_NEAR(r_read.duration, 10.0, 1e-6);
  EXPECT_TRUE(r_write.ok);
  EXPECT_NEAR(r_write.duration, 10.0, 1e-6);
  EXPECT_EQ(vol.server_node(), 0u);
}

TEST(NetworkVolume, ClientsContendOnServerNic) {
  sim::Simulation sim;
  net::Topology t;
  t.add_node("server", mbps(100), mbps(100));  // shared iSCSI server NIC
  t.add_node("h1", mbps(1000), mbps(1000));
  t.add_node("h2", mbps(1000), mbps(1000));
  net::Network netw(sim, std::move(t), 0.0);
  NetworkVolume v1(netw, 0, 1, GiB);
  NetworkVolume v2(netw, 0, 2, GiB);
  std::vector<IoResult> results(2);
  sim.spawn([](NetworkVolume& v, IoResult& out) -> sim::Task<> {
    out = co_await v.read(125 * MB);
  }(v1, results[0]));
  sim.spawn([](NetworkVolume& v, IoResult& out) -> sim::Task<> {
    out = co_await v.read(125 * MB);
  }(v2, results[1]));
  sim.run();
  EXPECT_NEAR(results[0].duration, 20.0, 1e-6);  // 6.25 MB/s each
  EXPECT_NEAR(results[1].duration, 20.0, 1e-6);
}

TEST(ObjectStore, RequestLatencyBeforeBytes) {
  sim::Simulation sim;
  net::Network netw(sim, two_nodes(), 0.0);
  ObjectStore store(sim, netw, 0, 1, /*request_latency=*/0.2, GiB);
  IoResult result;
  sim.spawn([](ObjectStore& s, IoResult& out) -> sim::Task<> {
    out = co_await s.read(125 * MB);
  }(store, result));
  sim.run();
  EXPECT_TRUE(result.ok);
  EXPECT_NEAR(result.duration, 10.2, 1e-6);
}

}  // namespace
}  // namespace frieda::storage
