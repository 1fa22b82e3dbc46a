// Fuzz-style robustness tests for the trace readers (workload/trace_io.h):
// valid hcs v1/v2 traces and Azure/Borg CSV traces are mutated —
// truncated at every byte, byte-flipped, given huge or non-finite numbers,
// extra fields, swapped, duplicated or dropped rows — and every mutant must
// either parse into tasks a Workload accepts or throw std::runtime_error
// whose message names a line of the input.  Nothing else may be thrown, and
// nothing may crash (the ASan CI leg runs this suite).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <random>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "workload/trace_io.h"
#include "workload/workload.h"

namespace {

using namespace hcs;

enum class Format { HcsV1, HcsV2, Azure, Borg };

const char* name(Format f) {
  switch (f) {
    case Format::HcsV1: return "HcsV1";
    case Format::HcsV2: return "HcsV2";
    case Format::Azure: return "Azure";
    default: return "Borg";
  }
}

std::string validTrace(Format f) {
  switch (f) {
    case Format::HcsV1:
      return "hcs-workload v1 4\n"
             "# comment\n"
             "0 0.5 3.25\n"
             "1 1 4\n"
             "\n"
             "3 1 9\n"
             "2 2.75 3\n";
    case Format::HcsV2:
      return "hcs-workload v2 4\n"
             "0 0.5 3.25 1\n"
             "# comment\n"
             "1 1 4 2.5\n"
             "3 1 9 1\n"
             "\n"
             "2 2.75 3 4\n";
    case Format::Azure:
      return "timestamp,function,duration\n"
             "0.5,alpha,2.0\n"
             "1.0,beta,0.25\n"
             "# comment\n"
             "1.0,alpha,3.0\n"
             "2.5,gamma,1.5\n";
    default:
      return "time,jobid,priority,runtime\n"
             "0.5,job1,0,2.0\n"
             "1.0,job2,5,0.25\n"
             "1.0,job1,1,3.0\n"
             "\n"
             "2.5,job3,9,1.5\n";
  }
}

std::vector<std::string> splitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string joinLines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

/// One random mutation of `text`.
std::string mutate(std::string text, std::mt19937_64& rng, Format f) {
  static const std::vector<std::string> kNumbers = {
      "1e308", "-1e308", "1e400", "-1e400", "1e-400", "nan", "NaN", "inf",
      "-inf", "Infinity", "0x1p3", "-0", "2147483648", "-2147483649",
      "99999999999999999999999", "", " ", "1e", "--1", "+5", "0.5.5"};
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  std::vector<std::string> lines = splitLines(text);
  const char sep = f == Format::Azure || f == Format::Borg ? ',' : ' ';
  switch (rng() % 8) {
    case 0: {  // flip one byte to anything
      if (text.empty()) return text;
      text[pick(text.size())] = static_cast<char>(rng() % 256);
      return text;
    }
    case 1: {  // flip one bit
      if (text.empty()) return text;
      text[pick(text.size())] ^= static_cast<char>(1u << (rng() % 8));
      return text;
    }
    case 2: {  // replace one field with a huge, tiny or non-finite number
      if (lines.empty()) return text;
      std::string& line = lines[pick(lines.size())];
      std::vector<std::size_t> starts{0};
      for (std::size_t i = 0; i < line.size(); ++i) {
        if (line[i] == sep) starts.push_back(i + 1);
      }
      const std::size_t begin = starts[pick(starts.size())];
      std::size_t end = line.find(sep, begin);
      if (end == std::string::npos) end = line.size();
      line.replace(begin, end - begin, kNumbers[pick(kNumbers.size())]);
      return joinLines(lines);
    }
    case 3: {  // an extra field, or one field fewer
      if (lines.empty()) return text;
      std::string& line = lines[pick(lines.size())];
      if (rng() % 2 == 0) {
        line += std::string(1, sep) + kNumbers[pick(kNumbers.size())];
      } else if (const std::size_t cut = line.rfind(sep);
                 cut != std::string::npos) {
        line.erase(cut);
      }
      return joinLines(lines);
    }
    case 4: {  // two rows swap (out-of-order arrivals)
      if (lines.size() < 2) return text;
      std::swap(lines[pick(lines.size())], lines[pick(lines.size())]);
      return joinLines(lines);
    }
    case 5: {  // a row is duplicated or dropped
      if (lines.empty()) return text;
      const std::size_t i = pick(lines.size());
      if (rng() % 2 == 0) {
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i),
                     lines[i]);
      } else {
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(i));
      }
      return joinLines(lines);
    }
    case 6: {  // a row of separators and junk
      const std::string junk[] = {",,,,", "    ", "\r", "#", "a b c d e",
                                  "1,2", "1 2 3 4 5 6", "\t0\t1\t2\t1"};
      lines.insert(lines.begin() +
                       static_cast<std::ptrdiff_t>(pick(lines.size() + 1)),
                   junk[pick(std::size(junk))]);
      return joinLines(lines);
    }
    default:  // a truncation anywhere, final newline included
      return text.substr(0, pick(text.size() + 1));
  }
}

/// Parses `text` in format `f` to the end; returns the error message if it
/// threw std::runtime_error, "" if it parsed.  Any other exception escapes.
std::string parse(const std::string& text, Format f,
                  const std::string& csvPath) {
  try {
    if (f == Format::HcsV1 || f == Format::HcsV2) {
      std::istringstream in(text);
      (void)workload::loadWorkload(in);
      return "";
    }
    {
      std::ofstream out(csvPath, std::ios::binary | std::ios::trunc);
      out << text;
    }
    workload::CsvTraceOptions options;
    options.numTaskTypes = 4;
    workload::CsvTaskStream stream(
        csvPath,
        f == Format::Azure ? workload::CsvTraceFormat::Azure
                           : workload::CsvTraceFormat::Borg,
        options);
    std::vector<workload::TaskSpec> tasks;
    while (stream.peek() != nullptr) tasks.push_back(stream.pop());
    // What the stream delivered must also be a valid materialized trial.
    (void)workload::Workload(std::move(tasks), options.numTaskTypes);
    return "";
  } catch (const std::runtime_error& e) {
    return e.what();
  }
}

/// The input parses, or its error names a line that exists in it (an
/// error on an empty input names line 1).  Returns whether it was
/// rejected.
bool expectParsesOrNamesALine(const std::string& text, Format f,
                              const std::string& csvPath) {
  std::string error;
  try {
    error = parse(text, f, csvPath);
  } catch (const std::exception& e) {
    ADD_FAILURE() << name(f) << ": threw a non-runtime_error: " << e.what()
                  << "\ninput:\n" << text;
    return true;
  }
  if (error.empty()) return false;
  static const std::regex kLine("on line ([0-9]+)$");
  std::smatch m;
  if (!std::regex_search(error, m, kLine)) {
    ADD_FAILURE() << name(f) << ": error names no line: " << error
                  << "\ninput:\n" << text;
    return true;
  }
  const std::size_t line = std::stoul(m[1]);
  const std::size_t lines = std::max<std::size_t>(1, splitLines(text).size());
  EXPECT_GE(line, 1u) << error;
  EXPECT_LE(line, lines) << name(f) << ": " << error << "\ninput:\n" << text;
  return true;
}

class TraceFuzz : public ::testing::TestWithParam<Format> {
 protected:
  void TearDown() override { std::remove(csvPath_.c_str()); }
  const std::string csvPath_ = ::testing::TempDir() + "trace_fuzz_" +
                               std::to_string(::getpid()) + ".csv";
};

TEST_P(TraceFuzz, ValidTraceParses) {
  EXPECT_EQ(parse(validTrace(GetParam()), GetParam(), csvPath_), "");
}

TEST_P(TraceFuzz, EveryTruncationParsesOrNamesItsLine) {
  const std::string text = validTrace(GetParam());
  for (std::size_t n = 0; n <= text.size(); ++n) {
    expectParsesOrNamesALine(text.substr(0, n), GetParam(), csvPath_);
  }
}

TEST_P(TraceFuzz, RandomMutantsParseOrNameTheirLine) {
  const Format f = GetParam();
  std::mt19937_64 rng(0x7ace5eedull + static_cast<std::uint64_t>(f));
  std::size_t rejected = 0;
  constexpr int kMutants = 400;
  for (int i = 0; i < kMutants; ++i) {
    std::string text = validTrace(f);
    for (int k = 1 + static_cast<int>(rng() % 3); k > 0; --k) {
      text = mutate(text, rng, f);
    }
    rejected += expectParsesOrNamesALine(text, f, csvPath_);
  }
  // The mutations must actually reach the error paths, and must not all.
  EXPECT_GT(rejected, static_cast<std::size_t>(kMutants / 4));
  EXPECT_LT(rejected, static_cast<std::size_t>(kMutants));
}

INSTANTIATE_TEST_SUITE_P(AllFormats, TraceFuzz,
                         ::testing::Values(Format::HcsV1, Format::HcsV2,
                                           Format::Azure, Format::Borg),
                         [](const ::testing::TestParamInfo<Format>& info) {
                           return std::string(name(info.param));
                         });

}  // namespace
