#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/check.hpp"
#include "net/transport.hpp"

// SimTransport is the in-process round mailbox. RoundMailboxTest covers
// the send side (post, flip_round, inbox); MailboxTest covers the
// receiver's pull side (deliver, clear_inbox) and payload ownership.
// Each behaviour is tested once.

namespace snap::net {
namespace {

// ------------------------------------------------------ post and flip

TEST(RoundMailboxTest, MessagesAppearOnlyAfterFlip) {
  SimTransport<int> transport(3);
  transport.post(0, 1, 7, 0, false);
  EXPECT_TRUE(transport.inbox(1).empty());  // still in the send phase
  transport.flip_round();
  ASSERT_EQ(transport.inbox(1).size(), 1u);
  EXPECT_EQ(transport.inbox(1)[0].from, 0u);
  EXPECT_EQ(transport.inbox(1)[0].payload, 7);
}

TEST(RoundMailboxTest, PostAfterFlipBelongsToTheNextRound) {
  // The shared-clock contract: a frame posted after the flip is a
  // round-r+1 frame. It must not contaminate the round-r inbox, and the
  // next flip must deliver it (and only it).
  SimTransport<std::string> transport(2);
  transport.post(0, 1, "round-1", 0, false);
  transport.flip_round();
  transport.post(0, 1, "round-2", 0, false);  // posted while round 1 is read
  ASSERT_EQ(transport.inbox(1).size(), 1u);
  EXPECT_EQ(transport.inbox(1)[0].payload, "round-1");
  transport.flip_round();
  ASSERT_EQ(transport.inbox(1).size(), 1u);
  EXPECT_EQ(transport.inbox(1)[0].payload, "round-2");
  transport.flip_round();  // nothing posted: round 3 is empty
  EXPECT_TRUE(transport.inbox(1).empty());
}

TEST(RoundMailboxTest, InboxPreservesPostOrder) {
  SimTransport<int> transport(4);
  transport.post(2, 0, 20, 0, false);
  transport.post(1, 0, 10, 0, false);
  transport.post(2, 0, 21, 0, false);  // same sender again: in order
  transport.post(3, 0, 30, 0, false);
  transport.flip_round();
  const auto& inbox = transport.inbox(0);
  ASSERT_EQ(inbox.size(), 4u);
  EXPECT_EQ(inbox[0].payload, 20);
  EXPECT_EQ(inbox[1].payload, 10);
  EXPECT_EQ(inbox[2].payload, 21);
  EXPECT_EQ(inbox[3].payload, 30);
}

TEST(RoundMailboxTest, SelfSendIsAContractViolation) {
  SimTransport<int> transport(3);
  EXPECT_THROW(transport.post(1, 1, 5, 0, false), common::ContractViolation);
  // The violation must not corrupt the transport: valid traffic still
  // flows afterwards.
  transport.post(1, 2, 6, 0, false);
  transport.flip_round();
  EXPECT_TRUE(transport.inbox(1).empty());
  ASSERT_EQ(transport.inbox(2).size(), 1u);
  EXPECT_EQ(transport.inbox(2)[0].payload, 6);
}

TEST(RoundMailboxTest, RejectsOutOfRangeNodes) {
  SimTransport<int> transport(2);
  EXPECT_THROW(transport.post(0, 2, 1, 0, false), common::ContractViolation);
  EXPECT_THROW(transport.post(2, 0, 1, 0, false), common::ContractViolation);
  EXPECT_THROW((void)transport.inbox(2), common::ContractViolation);
}

// ------------------------------------------------------- pull delivery

TEST(MailboxTest, DeliversAfterFlip) {
  // A receiver appends its pulled frames after whatever the flip
  // delivered.
  SimTransport<int> transport(3);
  transport.post(2, 0, 20, 0, false);
  transport.flip_round();
  transport.deliver(1, 0, 10);
  ASSERT_EQ(transport.inbox(0).size(), 2u);
  EXPECT_EQ(transport.inbox(0)[0].from, 2u);
  EXPECT_EQ(transport.inbox(0)[0].payload, 20);
  EXPECT_EQ(transport.inbox(0)[1].from, 1u);
  EXPECT_EQ(transport.inbox(0)[1].payload, 10);
}

TEST(MailboxTest, MultipleSendersPreserved) {
  SimTransport<int> transport(4);
  transport.deliver(3, 0, 30);
  transport.deliver(1, 0, 10);
  transport.deliver(2, 0, 20);
  const auto& inbox = transport.inbox(0);
  ASSERT_EQ(inbox.size(), 3u);
  EXPECT_EQ(inbox[0].from, 3u);
  EXPECT_EQ(inbox[1].from, 1u);
  EXPECT_EQ(inbox[2].from, 2u);
}

TEST(MailboxTest, FlipClearsPreviousRound) {
  // clear_inbox empties only the reader's own inbox, and a pulled frame
  // is a current-round delivery: the next flip drops it.
  SimTransport<int> transport(3);
  transport.deliver(1, 0, 10);
  transport.deliver(0, 1, 1);
  transport.clear_inbox(0);
  EXPECT_TRUE(transport.inbox(0).empty());
  ASSERT_EQ(transport.inbox(1).size(), 1u);
  transport.flip_round();
  EXPECT_TRUE(transport.inbox(1).empty());
}

TEST(MailboxTest, MovesPayloads) {
  // Frames are moved, never copied, on both the post and the pull path:
  // the receiver sees the sender's buffer.
  SimTransport<std::vector<int>> transport(3);
  std::vector<int> posted{1, 2, 3};
  const int* posted_data = posted.data();
  transport.post(0, 1, std::move(posted), 0, false);
  transport.flip_round();
  std::vector<int> pulled{4, 5};
  const int* pulled_data = pulled.data();
  transport.deliver(2, 1, std::move(pulled));
  const auto& inbox = transport.inbox(1);
  ASSERT_EQ(inbox.size(), 2u);
  EXPECT_EQ(inbox[0].payload, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(inbox[0].payload.data(), posted_data);
  EXPECT_EQ(inbox[1].payload, (std::vector<int>{4, 5}));
  EXPECT_EQ(inbox[1].payload.data(), pulled_data);
}

TEST(MailboxTest, RejectsSelfSendAndBadIds) {
  SimTransport<int> transport(2);
  EXPECT_THROW(transport.deliver(1, 1, 5), common::ContractViolation);
  EXPECT_THROW(transport.deliver(0, 2, 1), common::ContractViolation);
  EXPECT_THROW(transport.deliver(2, 0, 1), common::ContractViolation);
  EXPECT_THROW(transport.clear_inbox(2), common::ContractViolation);
  EXPECT_TRUE(transport.inbox(1).empty());  // nothing half-delivered
}

}  // namespace
}  // namespace snap::net
