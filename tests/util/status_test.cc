#include "util/status.h"

#include <gtest/gtest.h>

#include <iterator>
#include <string>

namespace gecko {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing lpn");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing lpn");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing lpn");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::OutOfSpace("x").code(), StatusCode::kOutOfSpace);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Corruption("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::QueueFull("x").code(), StatusCode::kQueueFull);
  EXPECT_EQ(Status::Aborted("x").code(), StatusCode::kAborted);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
}

TEST(StatusTest, IoErrorCarriesCodeAndMessage) {
  Status s = Status::IoError("uncorrectable read at block 7 page 3");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(s.ToString(), "IO_ERROR: uncorrectable read at block 7 page 3");
}

TEST(StatusTest, EveryCodeHasADistinctName) {
  const StatusCode codes[] = {
      StatusCode::kOk,           StatusCode::kInvalidArgument,
      StatusCode::kNotFound,     StatusCode::kOutOfSpace,
      StatusCode::kFailedPrecondition, StatusCode::kCorruption,
      StatusCode::kQueueFull,    StatusCode::kAborted,
      StatusCode::kIoError,
  };
  for (size_t i = 0; i < std::size(codes); ++i) {
    std::string name = StatusCodeName(codes[i]);
    EXPECT_NE(name, "UNKNOWN") << "code " << static_cast<int>(codes[i]);
    for (size_t j = i + 1; j < std::size(codes); ++j) {
      EXPECT_NE(name, StatusCodeName(codes[j]));
    }
  }
}

}  // namespace
}  // namespace gecko
