#include "util/status.h"

#include <gtest/gtest.h>

namespace tpgnn {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, OkFactory) {
  EXPECT_TRUE(Status::Ok().ok());
}

TEST(StatusTest, InvalidArgumentCarriesMessage) {
  Status s = Status::InvalidArgument("bad shape");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad shape");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad shape");
}

TEST(StatusTest, NotFound) {
  Status s = Status::NotFound("missing");
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing");
}

TEST(StatusTest, FailedPrecondition) {
  Status s = Status::FailedPrecondition("not trained");
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(StatusTest, Internal) {
  Status s = Status::Internal("bug");
  EXPECT_EQ(s.code(), StatusCode::kInternal);
}

TEST(StatusTest, Overloaded) {
  Status s = Status::Overloaded("queue full");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOverloaded);
  EXPECT_EQ(s.ToString(), "OVERLOADED: queue full");
}

TEST(StatusTest, DeadlineExceeded) {
  Status s = Status::DeadlineExceeded("io timeout after 50 ms");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(s.ToString(), "DEADLINE_EXCEEDED: io timeout after 50 ms");
}

TEST(StatusTest, DataLoss) {
  Status s = Status::DataLoss("bad frame magic");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_EQ(s.ToString(), "DATA_LOSS: bad frame magic");
}

}  // namespace
}  // namespace tpgnn
