#include <gtest/gtest.h>

#include <sstream>

#include "mobility/trace_io.h"
#include "support/temp_path.h"
#include "util/rng.h"

namespace rapid {
namespace {

DieselNetTrace small_trace() {
  DieselNetConfig config;
  config.fleet_size = 8;
  config.min_buses_per_day = 4;
  config.max_buses_per_day = 6;
  config.day_duration = 3600;
  config.num_routes = 3;
  config.same_route_rate = 2.0;
  config.adjacent_route_rate = 0.5;
  Rng rng(42);
  return generate_dieselnet_trace(config, 3, rng);
}

TEST(TraceIo, RoundTripPreservesEverything) {
  const DieselNetTrace original = small_trace();
  std::stringstream buffer;
  write_trace(buffer, original);
  const DieselNetTrace loaded = read_trace(buffer);

  EXPECT_EQ(loaded.config.fleet_size, original.config.fleet_size);
  ASSERT_EQ(loaded.days.size(), original.days.size());
  for (std::size_t d = 0; d < original.days.size(); ++d) {
    const DayTrace& a = original.days[d];
    const DayTrace& b = loaded.days[d];
    EXPECT_EQ(a.active_buses, b.active_buses);
    EXPECT_DOUBLE_EQ(a.schedule.duration, b.schedule.duration);
    ASSERT_EQ(a.schedule.size(), b.schedule.size());
    for (std::size_t m = 0; m < a.schedule.size(); ++m) {
      EXPECT_EQ(a.schedule.meetings()[m].a, b.schedule.meetings()[m].a);
      EXPECT_EQ(a.schedule.meetings()[m].b, b.schedule.meetings()[m].b);
      EXPECT_NEAR(a.schedule.meetings()[m].time, b.schedule.meetings()[m].time, 1e-6);
      EXPECT_EQ(a.schedule.meetings()[m].capacity, b.schedule.meetings()[m].capacity);
    }
  }
}

TEST(TraceIo, CommentsAndBlankLinesIgnored) {
  std::stringstream in(
      "# a comment\n"
      "rapid-trace v1\n"
      "\n"
      "fleet 4\n"
      "day 100 active 0 1 2\n"
      "# mid-day comment\n"
      "meet 0 1 5 1024\n"
      "end\n");
  const DieselNetTrace trace = read_trace(in);
  ASSERT_EQ(trace.days.size(), 1u);
  EXPECT_EQ(trace.days[0].schedule.size(), 1u);
}

TEST(TraceIo, RejectsMissingHeader) {
  std::stringstream in("fleet 4\n");
  EXPECT_THROW(read_trace(in), std::runtime_error);
}

TEST(TraceIo, RejectsMeetOutsideDay) {
  std::stringstream in("rapid-trace v1\nfleet 4\nmeet 0 1 5 10\n");
  EXPECT_THROW(read_trace(in), std::runtime_error);
}

TEST(TraceIo, RejectsOutOfRangeNodes) {
  std::stringstream in(
      "rapid-trace v1\nfleet 4\nday 100 active 0 1\nmeet 0 9 5 10\nend\n");
  EXPECT_THROW(read_trace(in), std::runtime_error);
}

TEST(TraceIo, RejectsSelfMeeting) {
  std::stringstream in(
      "rapid-trace v1\nfleet 4\nday 100 active 0 1\nmeet 1 1 5 10\nend\n");
  EXPECT_THROW(read_trace(in), std::runtime_error);
}

TEST(TraceIo, RejectsUnterminatedDay) {
  std::stringstream in("rapid-trace v1\nfleet 4\nday 100 active 0 1\nmeet 0 1 5 10\n");
  EXPECT_THROW(read_trace(in), std::runtime_error);
}

TEST(TraceIo, RejectsMeetingAfterDayEnd) {
  std::stringstream in(
      "rapid-trace v1\nfleet 4\nday 100 active 0 1\nmeet 0 1 200 10\nend\n");
  EXPECT_THROW(read_trace(in), std::runtime_error);
}

TEST(TraceIo, RejectsUnknownKeyword) {
  std::stringstream in("rapid-trace v1\nfleet 4\nbogus 1 2 3\n");
  EXPECT_THROW(read_trace(in), std::runtime_error);
}

TEST(TraceIo, RejectsTruncatedMeetLine) {
  std::stringstream in(
      "rapid-trace v1\nfleet 4\nday 100 active 0 1\nmeet 0 1 5\nend\n");
  EXPECT_THROW(read_trace(in), std::runtime_error);
}

TEST(TraceIo, RejectsTrailingGarbage) {
  std::stringstream meet(
      "rapid-trace v1\nfleet 4\nday 100 active 0 1\nmeet 0 1 5 10 extra\nend\n");
  EXPECT_THROW(read_trace(meet), std::runtime_error);
  std::stringstream fleet("rapid-trace v1\nfleet 4 surplus\n");
  EXPECT_THROW(read_trace(fleet), std::runtime_error);
  std::stringstream active(
      "rapid-trace v1\nfleet 4\nday 100 active 0 1 bogus\nmeet 0 1 5 10\nend\n");
  EXPECT_THROW(read_trace(active), std::runtime_error);
}

TEST(TraceIo, RejectsNonMonotonicMeetTimes) {
  // Replayed days feed the streaming mobility path, whose time-order
  // contract must hold at the source — out-of-order meet lines are a
  // corrupt trace, not something to silently re-sort.
  std::stringstream in(
      "rapid-trace v1\nfleet 4\nday 100 active 0 1 2\n"
      "meet 0 1 50 10\nmeet 1 2 20 10\nend\n");
  try {
    read_trace(in);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 5"), std::string::npos) << what;
    EXPECT_NE(what.find("non-monotonic"), std::string::npos) << what;
  }
  // Equal timestamps are fine (two pairs can meet at the same instant).
  std::stringstream ties(
      "rapid-trace v1\nfleet 4\nday 100 active 0 1 2\n"
      "meet 0 1 20 10\nmeet 1 2 20 10\nend\n");
  EXPECT_EQ(read_trace(ties).days.at(0).schedule.size(), 2u);
}

TEST(TraceIo, RejectsDuplicateFleetAndDayBeforeFleet) {
  std::stringstream dup("rapid-trace v1\nfleet 4\nfleet 6\n");
  EXPECT_THROW(read_trace(dup), std::runtime_error);
  std::stringstream no_fleet("rapid-trace v1\nday 100 active 0 1\nend\n");
  EXPECT_THROW(read_trace(no_fleet), std::runtime_error);
}

TEST(TraceIo, LoadedDaysReplayThroughTheStreamingInterface) {
  const DieselNetTrace original = small_trace();
  std::stringstream buffer;
  write_trace(buffer, original);
  const DieselNetTrace loaded = read_trace(buffer);
  // Strict monotonic parsing keeps every day's sorted invariant intact, so
  // replay models can stream it directly.
  for (const DayTrace& day : loaded.days) EXPECT_TRUE(day.schedule.is_sorted());
}

TEST(TraceIo, FileRoundTrip) {
  const DieselNetTrace original = small_trace();
  const std::string path = unique_temp_path("rapid_trace_test.txt");
  ASSERT_TRUE(write_trace_file(path, original));
  const DieselNetTrace loaded = read_trace_file(path);
  EXPECT_EQ(loaded.days.size(), original.days.size());
  EXPECT_THROW(read_trace_file("/nonexistent/path/trace.txt"), std::runtime_error);
}

}  // namespace
}  // namespace rapid
