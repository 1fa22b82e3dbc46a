// Trace replay contracts (the streaming half of workload/trace_io.h):
//  - A header-only hcs trace is a valid EMPTY stream; malformed, truncated,
//    out-of-order, and out-of-range records are rejected with the offending
//    file and line number.
//  - Round trip: generate -> save -> replay yields the exact TaskSpec
//    sequence of the materialized workload, and a trial run off the replay
//    stream is byte-identical to the materialized trial.
//  - CSV cluster traces (Azure Functions / Borg-style) map onto the task
//    model deterministically: FNV-hashed types, slack-derived deadlines,
//    Borg priorities as task values, one header line auto-skipped.
//  - LimitedTaskStream applies the scenario stream block's max_tasks /
//    max_time cutoffs to any source.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/simulation.h"
#include "workload/pet_matrix.h"
#include "workload/stream.h"
#include "workload/trace_io.h"
#include "workload/workload.h"

namespace {

using namespace hcs;

std::string writeTemp(const std::string& name, const std::string& contents) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
  return path;
}

std::vector<workload::TaskSpec> drain(workload::TaskStream& stream) {
  std::vector<workload::TaskSpec> specs;
  while (stream.peek() != nullptr) specs.push_back(stream.pop());
  return specs;
}

/// The message a stream raises while draining, "" if it drains cleanly.
std::string drainError(workload::TaskStream& stream) {
  try {
    drain(stream);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

bool sameSpecs(const std::vector<workload::TaskSpec>& a,
               const std::vector<workload::TaskSpec>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].type != b[i].type || a[i].arrival != b[i].arrival ||
        a[i].deadline != b[i].deadline || a[i].value != b[i].value) {
      return false;
    }
  }
  return true;
}

// --- hcs trace replay -------------------------------------------------------

TEST(TraceReplayTest, HeaderOnlyTraceIsEmptyStream) {
  const std::string path =
      writeTemp("empty.trace", "hcs-workload v2 4\n");
  workload::TraceTaskStream stream(path);
  EXPECT_EQ(stream.numTaskTypes(), 4);
  EXPECT_EQ(stream.peek(), nullptr);
  EXPECT_TRUE(drain(stream).empty());
}

TEST(TraceReplayTest, CommentsAndBlankLinesAreSkipped) {
  const std::string path = writeTemp("comments.trace",
                                     "hcs-workload v2 4\n"
                                     "# a comment\n"
                                     "\n"
                                     "1 0.5 2.5 1\n"
                                     "# trailing comment\n");
  workload::TraceTaskStream stream(path);
  const auto specs = drain(stream);
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].type, 1);
  EXPECT_EQ(specs[0].arrival, 0.5);
  EXPECT_EQ(specs[0].deadline, 2.5);
}

TEST(TraceReplayTest, MalformedRecordNamesItsLine) {
  const std::string path = writeTemp("malformed.trace",
                                     "hcs-workload v2 4\n"
                                     "0 1.0 2.0 1\n"
                                     "bogus\n");
  workload::TraceTaskStream stream(path);
  const std::string error = drainError(stream);
  EXPECT_NE(error.find("malformed record"), std::string::npos) << error;
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
}

TEST(TraceReplayTest, TruncatedFinalRecordNamesItsLine) {
  // v2 requires the value column; a record cut short mid-write must not
  // silently parse as a shorter valid record.
  const std::string path = writeTemp("truncated.trace",
                                     "hcs-workload v2 4\n"
                                     "0 1.0 2.0\n");
  workload::TraceTaskStream stream(path);
  const std::string error = drainError(stream);
  EXPECT_NE(error.find("truncated record"), std::string::npos) << error;
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

TEST(TraceReplayTest, OutOfOrderArrivalsNameTheirLine) {
  const std::string path = writeTemp("unsorted.trace",
                                     "hcs-workload v2 4\n"
                                     "0 5.0 9.0 1\n"
                                     "1 4.0 8.0 1\n");
  workload::TraceTaskStream stream(path);
  const std::string error = drainError(stream);
  EXPECT_NE(error.find("out-of-order arrival"), std::string::npos) << error;
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
}

TEST(TraceReplayTest, TypeAndValueRangeErrorsNameTheirLine) {
  {
    workload::TraceTaskStream stream(writeTemp("badtype.trace",
                                               "hcs-workload v2 4\n"
                                               "4 1.0 2.0 1\n"));
    const std::string error = drainError(stream);
    EXPECT_NE(error.find("task type out of range"), std::string::npos)
        << error;
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  }
  {
    workload::TraceTaskStream stream(writeTemp("badvalue.trace",
                                               "hcs-workload v2 4\n"
                                               "0 1.0 2.0 0\n"));
    EXPECT_NE(drainError(stream).find("non-positive task value"),
              std::string::npos);
  }
  {
    workload::TraceTaskStream stream(writeTemp("baddl.trace",
                                               "hcs-workload v2 4\n"
                                               "0 3.0 2.0 1\n"));
    EXPECT_NE(drainError(stream).find("deadline precedes arrival"),
              std::string::npos);
  }
}

TEST(TraceReplayTest, NonNumericValueIsMalformedNotTruncated) {
  workload::TraceTaskStream stream(writeTemp("infvalue.trace",
                                             "hcs-workload v2 4\n"
                                             "0 1.0 2.0 inf\n"));
  const std::string error = drainError(stream);
  EXPECT_NE(error.find("malformed value on line 2"), std::string::npos)
      << error;
}

TEST(TraceReplayTest, PartlyNumericOrExtraFieldsAreMalformed) {
  // Each record must be exactly its fields: an integer type and finite
  // numbers that fill their whole field.  A stream reader would take the
  // "1" of "1.5" as the type and shift the rest left, or ignore a
  // trailing field.
  struct Case {
    const char* contents;
    const char* error;
  };
  for (const Case& c :
       {Case{"hcs-workload v1 4\n0 0.5 1.0\n1.5 2 3\n",
             "malformed task type on line 3"},
        Case{"hcs-workload v1 4\n1 2 3 junk\n",
             "malformed record (expected 3 fields, got 4) on line 2"},
        Case{"hcs-workload v2 4\n1 2 3 1 extra\n",
             "malformed record (expected 4 fields, got 5) on line 2"},
        Case{"hcs-workload v2 4\n1 2 3 1.0x\n", "malformed value on line 2"},
        Case{"hcs-workload v2 4\n1 2x 3 1\n", "malformed arrival on line 2"},
        Case{"hcs-workload v2 4\n1 2 3e 1\n",
             "malformed deadline on line 2"}}) {
    workload::TraceTaskStream stream(writeTemp("fields.trace", c.contents));
    const std::string error = drainError(stream);
    EXPECT_NE(error.find(c.error), std::string::npos)
        << c.contents << " -> " << error;
  }
}

TEST(TraceReplayTest, HeaderWithTrailingFieldsIsRejected) {
  for (const char* header :
       {"hcs-workload v1 4 trailing\n", "hcs-workload v2 4.5\n",
        "hcs-workload v2\n"}) {
    std::string error;
    try {
      workload::TraceTaskStream stream(writeTemp("header.trace", header));
    } catch (const std::runtime_error& e) {
      error = e.what();
    }
    EXPECT_NE(error.find("bad header"), std::string::npos) << header;
    EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  }
}

TEST(TraceReplayTest, ValidRecordsParseExactlyAsStreamExtraction) {
  // Tabs, CRLF endings and signed or exponent forms still load, to the
  // same values a stream extraction reads.
  const std::string path = writeTemp("valid.trace",
                                     "hcs-workload v2 4\r\n"
                                     "+1\t0.1\t2.5e1\t3\r\n"
                                     "  3 0.30000000000000004 40 0.5  \n");
  workload::TraceTaskStream stream(path);
  const auto specs = drain(stream);
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].type, 1);
  EXPECT_EQ(specs[0].arrival, 0.1);
  EXPECT_EQ(specs[0].deadline, 25.0);
  EXPECT_EQ(specs[0].value, 3.0);
  EXPECT_EQ(specs[1].type, 3);
  EXPECT_EQ(specs[1].arrival, 0.30000000000000004);
  EXPECT_EQ(specs[1].deadline, 40.0);
  EXPECT_EQ(specs[1].value, 0.5);
}

TEST(TraceReplayTest, V1TracesStillReplayWithUnitValues) {
  const std::string path = writeTemp("v1.trace",
                                     "hcs-workload v1 4\n"
                                     "0 1.0 2.0\n"
                                     "1 1.5 3.0\n");
  workload::TraceTaskStream stream(path);
  const auto specs = drain(stream);
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].value, 1.0);
  EXPECT_EQ(specs[1].value, 1.0);
}

TEST(TraceReplayTest, RoundTripReplayMatchesMaterializedTrial) {
  // generate -> save -> replay must reproduce the exact spec sequence, and
  // a trial run off the replay stream must match the materialized trial.
  workload::PetSynthesisConfig petConfig;
  petConfig.numTaskTypes = 4;
  petConfig.numMachineTypes = 4;
  petConfig.samplesPerHistogram = 100;
  const auto pet = std::make_shared<const workload::PetMatrix>(
      workload::PetMatrix::specLike(petConfig, 11));

  workload::ArrivalSpec arrival;
  arrival.span = 120;
  arrival.totalTasks = 400;
  arrival.numTaskTypes = 4;
  const workload::Workload wl =
      workload::Workload::generate(*pet, arrival, {}, 7);

  const std::string path = ::testing::TempDir() + "roundtrip.trace";
  workload::saveWorkloadFile(wl, path);

  workload::TraceTaskStream replay(path);
  EXPECT_EQ(replay.numTaskTypes(), 4);
  EXPECT_TRUE(sameSpecs(drain(replay), wl.tasks()));

  const workload::BoundExecutionModel cluster =
      workload::BoundExecutionModel::heterogeneous(pet);
  core::SimulationConfig config;
  config.warmupMargin = 0;
  const core::TrialResult materialized =
      core::Simulation(cluster, wl, config).run();
  workload::TraceTaskStream replayAgain(path);
  const core::TrialResult streamed =
      core::Simulation(cluster, replayAgain, config).run();
  EXPECT_EQ(materialized.robustnessPercent, streamed.robustnessPercent);
  EXPECT_EQ(materialized.makespan, streamed.makespan);
  EXPECT_EQ(materialized.mappingEvents, streamed.mappingEvents);
  EXPECT_EQ(materialized.metrics.completedOnTime(),
            streamed.metrics.completedOnTime());
  EXPECT_EQ(materialized.metrics.completedLate(),
            streamed.metrics.completedLate());
  EXPECT_EQ(materialized.machineUtilization, streamed.machineUtilization);
}

// --- CSV cluster traces -----------------------------------------------------

TEST(CsvTraceTest, AzureRowsMapOntoTheTaskModel) {
  const std::string path = writeTemp("azure.csv",
                                     "timestamp,function,duration\n"
                                     "0.5,alpha,2.0\n"
                                     "1.5,beta,4.0\n"
                                     "2.5,alpha,2.0\n");
  workload::CsvTraceOptions options;
  options.numTaskTypes = 6;
  options.deadlineSlack = 3.0;
  workload::CsvTaskStream stream(path, workload::CsvTraceFormat::Azure,
                                 options);
  const auto specs = drain(stream);
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].arrival, 0.5);
  EXPECT_EQ(specs[0].deadline, 0.5 + 3.0 * 2.0);
  EXPECT_EQ(specs[0].value, 1.0);
  for (const auto& s : specs) {
    EXPECT_GE(s.type, 0);
    EXPECT_LT(s.type, 6);
  }
  // The FNV type hash is a pure function of the key.
  EXPECT_EQ(specs[0].type, specs[2].type);
}

TEST(CsvTraceTest, TimeScaleRescalesArrivalsAndRuntimes) {
  const std::string path = writeTemp("azure_scaled.csv",
                                     "10,alpha,2\n"
                                     "20,beta,4\n");
  workload::CsvTraceOptions options;
  options.numTaskTypes = 4;
  options.deadlineSlack = 1.0;
  options.timeScale = 0.1;
  workload::CsvTaskStream stream(path, workload::CsvTraceFormat::Azure,
                                 options);
  const auto specs = drain(stream);
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_DOUBLE_EQ(specs[0].arrival, 1.0);
  EXPECT_DOUBLE_EQ(specs[0].deadline, 1.0 + 0.2);
  EXPECT_DOUBLE_EQ(specs[1].arrival, 2.0);
}

TEST(CsvTraceTest, BorgPrioritiesBecomeTaskValues) {
  const std::string path = writeTemp("borg.csv",
                                     "time,jobid,priority,runtime\n"
                                     "0,job-a,5,2.0\n"
                                     "1,job-b,0,2.0\n");
  workload::CsvTaskStream stream(path, workload::CsvTraceFormat::Borg,
                                 workload::CsvTraceOptions{});
  const auto specs = drain(stream);
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].value, 5.0);
  // Priority 0 clamps to the engine's positive-value floor.
  EXPECT_EQ(specs[1].value, 1.0);
}

TEST(CsvTraceTest, ErrorsNameTheOffendingLine) {
  {
    workload::CsvTaskStream stream(
        writeTemp("short.csv", "0.5,alpha\n"),
        workload::CsvTraceFormat::Azure, workload::CsvTraceOptions{});
    const std::string error = drainError(stream);
    EXPECT_NE(error.find("truncated record"), std::string::npos) << error;
    EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  }
  {
    // Only ONE leading header is forgiven; a second non-numeric row is an
    // error, not a comment.
    workload::CsvTaskStream stream(
        writeTemp("two_headers.csv",
                  "timestamp,function,duration\n"
                  "again,not,numeric\n"),
        workload::CsvTraceFormat::Azure, workload::CsvTraceOptions{});
    const std::string error = drainError(stream);
    EXPECT_NE(error.find("malformed timestamp"), std::string::npos) << error;
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  }
  {
    workload::CsvTaskStream stream(
        writeTemp("negative.csv", "1.0,alpha,-2.0\n"),
        workload::CsvTraceFormat::Azure, workload::CsvTraceOptions{});
    EXPECT_NE(drainError(stream).find("negative runtime"),
              std::string::npos);
  }
  {
    workload::CsvTaskStream stream(
        writeTemp("unsorted.csv",
                  "2.0,alpha,1.0\n"
                  "1.0,beta,1.0\n"),
        workload::CsvTraceFormat::Azure, workload::CsvTraceOptions{});
    const std::string error = drainError(stream);
    EXPECT_NE(error.find("out-of-order arrival"), std::string::npos)
        << error;
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  }
}

TEST(CsvTraceTest, NonFiniteFieldsAndOverflowingTimesNameTheirLine) {
  struct Case {
    workload::CsvTraceFormat format;
    const char* rows;
    const char* message;
  };
  const auto azure = workload::CsvTraceFormat::Azure;
  const auto borg = workload::CsvTraceFormat::Borg;
  for (const Case& c : {
           Case{azure, "0,f1,1.0\n1,f1,1.0\nnan,f2,1.0\n",
                "malformed timestamp on line 3"},
           Case{azure, "0,f1,1.0\n1,f1,1.0\ninf,f2,1.0\n",
                "malformed timestamp on line 3"},
           Case{azure, "0,f1,1.0\n1,f2,-inf\n", "malformed duration on line 2"},
           Case{azure, "0,f1,nan\n", "malformed duration on line 1"},
           Case{azure, "0,f1,1.0\n1,f1,1.0\n1e308,f,1e308\n",
                "time out of range on line 3"},
           Case{borg, "0,j1,nan,1.0\n", "malformed priority on line 1"},
           Case{borg, "0,j1,inf,1.0\n", "malformed priority on line 1"},
           Case{borg, "0,j1,1,nan\n", "malformed runtime on line 1"},
           Case{borg, "0,j1,1,1.0\nINF,j1,1,1.0\n",
                "malformed timestamp on line 2"},
       }) {
    const std::string path = writeTemp("nonfinite.csv", c.rows);
    workload::CsvTaskStream stream(path, c.format,
                                   workload::CsvTraceOptions{});
    EXPECT_EQ(drainError(stream), path + ": " + c.message) << c.rows;
  }
  // A scale that overflows finite fields is out of range too.
  workload::CsvTraceOptions scaled;
  scaled.timeScale = 1e10;
  workload::CsvTaskStream stream(writeTemp("overflow.csv", "1e300,f,1\n"),
                                 workload::CsvTraceFormat::Azure, scaled);
  EXPECT_NE(drainError(stream).find("time out of range on line 1"),
            std::string::npos);
}

// --- Cutoffs (the stream block's max_tasks / max_time) ----------------------

TEST(LimitedStreamTest, MaxTasksCutsTheStreamShort) {
  const std::string path = writeTemp("limit_tasks.trace",
                                     "hcs-workload v2 2\n"
                                     "0 1 2 1\n"
                                     "1 2 3 1\n"
                                     "0 3 4 1\n"
                                     "1 4 5 1\n");
  workload::LimitedTaskStream limited(
      std::make_unique<workload::TraceTaskStream>(path), 2, 0);
  const auto specs = drain(limited);
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[1].arrival, 2.0);
}

TEST(LimitedStreamTest, MaxTimeCutsAtTheFirstLateArrival) {
  const std::string path = writeTemp("limit_time.trace",
                                     "hcs-workload v2 2\n"
                                     "0 1 2 1\n"
                                     "1 2 3 1\n"
                                     "0 3 4 1\n");
  workload::LimitedTaskStream limited(
      std::make_unique<workload::TraceTaskStream>(path), 0, 2.5);
  const auto specs = drain(limited);
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[1].arrival, 2.0);
}

TEST(LimitedStreamTest, OpenTaskStreamAppliesSpecCutoffs) {
  const std::string path = writeTemp("open_spec.trace",
                                     "hcs-workload v2 2\n"
                                     "0 1 2 1\n"
                                     "1 2 3 1\n"
                                     "0 3 4 1\n");
  const auto pet = std::make_shared<const workload::PetMatrix>(
      workload::PetMatrix::specLike(
          workload::PetSynthesisConfig{.numTaskTypes = 2,
                                       .numMachineTypes = 2,
                                       .samplesPerHistogram = 50},
          3));
  workload::StreamSpec spec;
  spec.enabled = true;
  spec.trace = path;
  spec.format = "hcs";
  spec.maxTasks = 1;
  workload::ArrivalSpec arrival;
  arrival.numTaskTypes = 2;
  const auto stream =
      workload::openTaskStream(spec, *pet, arrival, {}, 1);
  EXPECT_EQ(drain(*stream).size(), 1u);

  workload::StreamSpec bad = spec;
  bad.format = "parquet";
  EXPECT_THROW(workload::openTaskStream(bad, *pet, arrival, {}, 1),
               std::invalid_argument);
}

}  // namespace
