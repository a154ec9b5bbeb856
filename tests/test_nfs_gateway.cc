// Tests for the NFS gateway to Inversion: stateless per-op atomicity, and
// 3DFS-style @timestamp namespace extension for time travel.

#include <gtest/gtest.h>

#include <cstring>

#include "src/net/nfs_gateway.h"

namespace invfs {
namespace {

class GatewayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open(&env_);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    fs_ = std::make_unique<InversionFs>(db_.get());
    ASSERT_TRUE(fs_->Mount().ok());
    gw_ = std::make_unique<InvNfsGateway>(fs_.get());
  }

  void WriteAll(int fd, const std::string& data) {
    auto n = gw_->Write(fd, std::as_bytes(std::span(data.data(), data.size())));
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    ASSERT_EQ(*n, static_cast<int64_t>(data.size()));
  }

  std::string ReadAll(const std::string& path) {
    auto fd = gw_->Open(path, false);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    if (!fd.ok()) {
      return {};
    }
    std::string out;
    char buf[256];
    for (;;) {
      auto n = gw_->Read(*fd, std::as_writable_bytes(std::span(buf)));
      EXPECT_TRUE(n.ok());
      if (!n.ok() || *n == 0) {
        break;
      }
      out.append(buf, static_cast<size_t>(*n));
    }
    EXPECT_TRUE(gw_->Close(*fd).ok());
    return out;
  }

  StorageEnv env_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<InversionFs> fs_;
  std::unique_ptr<InvNfsGateway> gw_;
};

TEST(ParseTimePath, Syntax) {
  auto plain = InvNfsGateway::ParseTimePath("/a/b");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->first, "/a/b");
  EXPECT_EQ(plain->second, kTimestampNow);

  auto stamped = InvNfsGateway::ParseTimePath("/a/b@12345");
  ASSERT_TRUE(stamped.ok());
  EXPECT_EQ(stamped->first, "/a/b");
  EXPECT_EQ(stamped->second, 12345u);

  EXPECT_FALSE(InvNfsGateway::ParseTimePath("/a/b@").ok());
  EXPECT_FALSE(InvNfsGateway::ParseTimePath("/a/b@12x").ok());
  EXPECT_FALSE(InvNfsGateway::ParseTimePath("/a@5/b").ok())
      << "suffix must be on the final component";
}

TEST_F(GatewayTest, StatelessRoundtrip) {
  auto fd = gw_->Creat("/gw.txt");
  ASSERT_TRUE(fd.ok());
  WriteAll(*fd, "through the gateway");
  ASSERT_TRUE(gw_->Close(*fd).ok());
  EXPECT_EQ(ReadAll("/gw.txt"), "through the gateway");
  auto st = gw_->GetAttr("/gw.txt");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 19);
}

TEST_F(GatewayTest, EveryWriteIsIndividuallyDurable) {
  auto fd = gw_->Creat("/durable.txt");
  ASSERT_TRUE(fd.ok());
  WriteAll(*fd, "sync!");
  // Crash without closing: the write must already be committed.
  gw_.reset();
  fs_.reset();
  db_->Crash();
  db_.reset();
  auto db = Database::Open(&env_);
  ASSERT_TRUE(db.ok());
  db_ = std::move(*db);
  fs_ = std::make_unique<InversionFs>(db_.get());
  ASSERT_TRUE(fs_->Mount().ok());
  gw_ = std::make_unique<InvNfsGateway>(fs_.get());
  EXPECT_EQ(ReadAll("/durable.txt"), "sync!");
}

TEST_F(GatewayTest, TimestampNamespaceReadsThePast) {
  auto fd = gw_->Creat("/log.txt");
  ASSERT_TRUE(fd.ok());
  WriteAll(*fd, "first");
  ASSERT_TRUE(gw_->Close(*fd).ok());
  const Timestamp t1 = db_->Now();
  fd = gw_->Open("/log.txt", true);
  ASSERT_TRUE(fd.ok());
  WriteAll(*fd, "SECOND-LONGER");
  ASSERT_TRUE(gw_->Close(*fd).ok());

  EXPECT_EQ(ReadAll("/log.txt"), "SECOND-LONGER");
  // ls(1) and cat(1) against the past, exactly as 3DFS pitched it.
  EXPECT_EQ(ReadAll("/log.txt@" + std::to_string(t1)), "first");
  auto st = gw_->GetAttr("/log.txt@" + std::to_string(t1));
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 5);
}

TEST_F(GatewayTest, HistoricalReaddirAndUndelete) {
  ASSERT_TRUE(gw_->Mkdir("/dir").ok());
  auto fd = gw_->Creat("/dir/gone.txt");
  ASSERT_TRUE(fd.ok());
  WriteAll(*fd, "bring me back");
  ASSERT_TRUE(gw_->Close(*fd).ok());
  const Timestamp before_rm = db_->Now();
  ASSERT_TRUE(gw_->Remove("/dir/gone.txt").ok());
  EXPECT_TRUE(gw_->Readdir("/dir")->empty());
  auto then = gw_->Readdir("/dir@" + std::to_string(before_rm));
  ASSERT_TRUE(then.ok());
  ASSERT_EQ(then->size(), 1u);
  EXPECT_EQ((*then)[0].name, "gone.txt");
  // Undelete through the gateway: read the past, write the present.
  const std::string saved = ReadAll("/dir/gone.txt@" + std::to_string(before_rm));
  EXPECT_EQ(saved, "bring me back");
}

TEST_F(GatewayTest, ThePastIsReadOnly) {
  auto fd = gw_->Creat("/ro.txt");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(gw_->Close(*fd).ok());
  std::string at = "@";
  at += std::to_string(db_->Now());
  EXPECT_EQ(gw_->Open("/ro.txt" + at, true).status().code(), ErrorCode::kReadOnly);
  EXPECT_EQ(gw_->Creat("/new.txt" + at).status().code(), ErrorCode::kReadOnly);
  EXPECT_EQ(gw_->Remove("/ro.txt" + at).code(), ErrorCode::kReadOnly);
  EXPECT_EQ(gw_->Mkdir("/d" + at).code(), ErrorCode::kReadOnly);
  EXPECT_EQ(gw_->Rename("/ro.txt" + at, "/x.txt").code(), ErrorCode::kReadOnly);
}

TEST_F(GatewayTest, SharesTheFileSystemWithTransactionalClients) {
  // "Users who want the richer services may still link with the special
  // library" — both clients see one file system.
  auto session_or = fs_->NewSession();
  ASSERT_TRUE(session_or.ok());
  InvSession& txn_client = **session_or;
  ASSERT_TRUE(txn_client.p_begin().ok());
  auto fd = txn_client.p_creat("/shared.txt");
  ASSERT_TRUE(fd.ok());
  const std::string data = "transactional";
  ASSERT_TRUE(
      txn_client.p_write(*fd, std::as_bytes(std::span(data.data(), data.size())))
          .ok());
  ASSERT_TRUE(txn_client.p_close(*fd).ok());
  // Uncommitted: the NFS client can't see it yet.
  EXPECT_TRUE(gw_->GetAttr("/shared.txt").status().IsNotFound());
  ASSERT_TRUE(txn_client.p_commit().ok());
  EXPECT_EQ(ReadAll("/shared.txt"), "transactional");
}

}  // namespace
}  // namespace invfs
