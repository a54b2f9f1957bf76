/// The orchestrator's contract: any worker count, any failure pattern
/// the retry budget absorbs, and any resume produce a merged grid
/// byte-identical to the single-process sweep.
///
/// Scheduler behavior (queueing, retry, timeout, one attempt per shard,
/// resume, manifest safety) is driven with toy /bin/sh workers copying
/// precomputed shard documents, so those tests run in milliseconds.
/// The end-to-end kill-mid-shard test execs the real `railcorr` binary
/// (located next to this test executable, or via RAILCORR_CLI) and is
/// skipped when the CLI is not built.
#include "orch/orchestrator.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/sweep_runner.hpp"
#include "orch/manifest.hpp"
#include "orch/process.hpp"
#include "orch/progress.hpp"
#include "util/durable_io.hpp"

namespace railcorr::orch {
namespace {

namespace fs = std::filesystem;

/// Self-deleting unique run directory.
struct TempDir {
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "railcorr_orch_XXXXXX").string();
    if (::mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed");
    }
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  fs::path path;
};

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const fs::path& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
}

/// A 4-cell plan whose rows the toy workers fabricate (the scheduler
/// never interprets rows, only the merge's framing does).
corridor::SweepPlan toy_plan() {
  return corridor::SweepPlan::from_spec("axis k = 1, 2, 3, 4\n");
}

/// The shard document a (well-behaved) toy worker produces: correct
/// banner, shared header, one deterministic row per owned cell.
std::string toy_doc(const corridor::SweepPlan& plan, std::size_t shard,
                    std::size_t shard_count) {
  std::string doc = corridor::shard_banner(plan) + "\nindex,k,metric\n";
  for (const std::size_t index :
       corridor::ShardSpec{shard, shard_count}.indices(plan.size())) {
    doc += std::to_string(index) + "," + plan.axis_values_at(index)[0] +
           ",10\n";
  }
  return doc;
}

/// Stage the per-shard documents a toy fleet copies into place,
/// trailered as a real worker writes them.
std::vector<std::string> stage_toy_docs(const corridor::SweepPlan& plan,
                                        const fs::path& dir,
                                        std::size_t shard_count) {
  std::vector<std::string> paths;
  for (std::size_t shard = 0; shard < shard_count; ++shard) {
    const fs::path path = dir / ("doc_" + std::to_string(shard) + ".txt");
    write_file(path,
               util::with_integrity_trailer(toy_doc(plan, shard, shard_count)));
    paths.push_back(path.string());
  }
  return paths;
}

std::vector<std::string> sh(const std::string& script) {
  return {"/bin/sh", "-c", script};
}

/// Failed attempts of class `cls` (0 when none failed so).
std::size_t failed(const OrchestrateStats& stats, const std::string& cls) {
  const auto it = stats.failures_by_class.find(cls);
  return it == stats.failures_by_class.end() ? 0 : it->second;
}

TEST(Orchestrate, ToyFleetCompletesAndMergesAllCells) {
  const auto plan = toy_plan();
  TempDir staging;
  TempDir run;
  const auto docs = stage_toy_docs(plan, staging.path, 2);

  OrchestrateOptions options;
  options.workers = 2;
  options.shards = 2;
  options.command = [&docs](const WorkerAttempt& attempt) {
    return sh("cat '" + docs[attempt.shard] + "' > '" + attempt.out_path +
              "'");
  };
  const auto result = orchestrate(plan, run.path.string(), options);
  ASSERT_TRUE(result.ok) << (result.errors.empty() ? "" : result.errors[0]);

  // The merged document equals the merge of the toy docs themselves.
  const auto expected =
      corridor::merge_shards({toy_doc(plan, 0, 2), toy_doc(plan, 1, 2)});
  ASSERT_TRUE(expected.ok);
  EXPECT_EQ(result.merged, expected.merged);
  // On disk the merged grid carries the crash-safe integrity trailer;
  // the in-memory result stays trailer-free for direct comparison
  // against run_sweep_shard output.
  EXPECT_EQ(read_file(run.path / "merged.csv"),
            util::with_integrity_trailer(expected.merged));

  // The manifest records both shards done and round-trips.
  const auto manifest =
      RunManifest::parse(read_file(run.path / "orchestrate.manifest"));
  EXPECT_TRUE(manifest.is_done(0));
  EXPECT_TRUE(manifest.is_done(1));
  EXPECT_EQ(manifest.fingerprint, plan.fingerprint());
  // The canonical plan is materialized for workers and resumes.
  EXPECT_EQ(read_file(run.path / "plan.sweep"), plan.canonical_spec());
}

TEST(Orchestrate, FlakyWorkerIsRetriedToCompletion) {
  const auto plan = toy_plan();
  TempDir staging;
  TempDir run;
  const auto docs = stage_toy_docs(plan, staging.path, 2);

  OrchestrateOptions options;
  options.workers = 2;
  options.shards = 2;
  options.retries = 2;
  options.command = [&docs](const WorkerAttempt& attempt) {
    if (attempt.shard == 1 && attempt.attempt == 0) {
      // First attempt of shard 1 crashes without output.
      return sh("exit 1");
    }
    return sh("cat '" + docs[attempt.shard] + "' > '" + attempt.out_path +
              "'");
  };
  const auto result = orchestrate(plan, run.path.string(), options);
  ASSERT_TRUE(result.ok) << (result.errors.empty() ? "" : result.errors[0]);
  EXPECT_GE(result.stats.retried, 1u);
  EXPECT_GE(result.stats.attempts, 3u);
}

TEST(Orchestrate, RetryBudgetExhaustionFailsTheRun) {
  const auto plan = toy_plan();
  TempDir run;

  OrchestrateOptions options;
  options.workers = 1;
  options.shards = 1;
  options.retries = 1;
  options.command = [](const WorkerAttempt&) { return sh("exit 7"); };
  const auto result = orchestrate(plan, run.path.string(), options);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.contract_violation);
  ASSERT_FALSE(result.errors.empty());
  EXPECT_NE(result.errors[0].find("retry budget exhausted"),
            std::string::npos);
  // First launch + one retry.
  EXPECT_EQ(result.stats.attempts, 2u);
}

TEST(Orchestrate, TimedOutStragglerIsKilledAndRetried) {
  const auto plan = toy_plan();
  TempDir staging;
  TempDir run;
  const auto docs = stage_toy_docs(plan, staging.path, 1);

  OrchestrateOptions options;
  options.workers = 1;
  options.shards = 1;
  options.retries = 1;
  options.timeout_s = 0.3;
  options.command = [&docs](const WorkerAttempt& attempt) {
    if (attempt.attempt == 0) return sh("sleep 30");
    return sh("cat '" + docs[0] + "' > '" + attempt.out_path + "'");
  };
  const auto result = orchestrate(plan, run.path.string(), options);
  ASSERT_TRUE(result.ok) << (result.errors.empty() ? "" : result.errors[0]);
  EXPECT_GE(result.stats.retried, 1u);
}

TEST(Orchestrate, StalledWorkerIsKilledAndRetried) {
  const auto plan = toy_plan();
  TempDir staging;
  TempDir run;
  const auto docs = stage_toy_docs(plan, staging.path, 1);

  OrchestrateOptions options;
  options.workers = 1;
  options.shards = 1;
  options.retries = 1;
  // No wall-clock timeout at all: only the progress-silence liveness
  // check can clear the hung first attempt.
  options.timeout_s = 0.0;
  options.stall_timeout_s = 0.3;
  options.backoff_base_s = 0.0;
  options.command = [&docs](const WorkerAttempt& attempt) {
    if (attempt.attempt == 0) return sh("sleep 30");
    return sh("cat '" + docs[0] + "' > '" + attempt.out_path + "'");
  };
  const auto result = orchestrate(plan, run.path.string(), options);
  ASSERT_TRUE(result.ok) << (result.errors.empty() ? "" : result.errors[0]);
  EXPECT_GE(failed(result.stats, "stalled"), 1u);
  EXPECT_EQ(failed(result.stats, "timeout"), 0u);

  const auto manifest =
      RunManifest::parse(read_file(run.path / "orchestrate.manifest"));
  ASSERT_FALSE(manifest.failures.empty());
  EXPECT_EQ(manifest.failures[0].cause, "stalled");
}

TEST(Orchestrate, CorruptWorkerOutputIsRetried) {
  const auto plan = toy_plan();
  TempDir staging;
  TempDir run;
  const auto docs = stage_toy_docs(plan, staging.path, 1);

  OrchestrateOptions options;
  options.workers = 1;
  options.shards = 1;
  options.retries = 1;
  options.backoff_base_s = 0.0;
  options.command = [&docs](const WorkerAttempt& attempt) {
    if (attempt.attempt == 0) {
      // Torn write: a 20-byte prefix of the document, then exit 0 —
      // the worker *claims* success with invalid output on disk.
      return sh("head -c 20 '" + docs[0] + "' > '" + attempt.out_path + "'");
    }
    return sh("cat '" + docs[0] + "' > '" + attempt.out_path + "'");
  };
  const auto result = orchestrate(plan, run.path.string(), options);
  ASSERT_TRUE(result.ok) << (result.errors.empty() ? "" : result.errors[0]);
  EXPECT_GE(failed(result.stats, "corrupt-output"), 1u);
  EXPECT_GE(result.stats.retried, 1u);

  const auto manifest =
      RunManifest::parse(read_file(run.path / "orchestrate.manifest"));
  ASSERT_FALSE(manifest.failures.empty());
  EXPECT_EQ(manifest.failures[0].cause, "corrupt-output");
}

TEST(Orchestrate, ShardWithAnotherPlansBannerIsRejectedAtPublish) {
  // A worker that evaluated another plan of the same size writes a
  // well-formed, trailered shard with one row per owned cell: only its
  // banner tells, and publish is where it is checked.
  const auto plan = toy_plan();
  const auto other = corridor::SweepPlan::from_spec("axis k = 1, 2, 3, 5\n");
  ASSERT_NE(corridor::shard_banner(other), corridor::shard_banner(plan));
  TempDir staging;
  TempDir run;
  const auto docs = stage_toy_docs(other, staging.path, 1);

  OrchestrateOptions options;
  options.workers = 1;
  options.shards = 1;
  options.retries = 1;
  options.backoff_base_s = 0.0;
  options.command = [&docs](const WorkerAttempt& attempt) {
    return sh("cat '" + docs[0] + "' > '" + attempt.out_path + "'");
  };
  const auto result = orchestrate(plan, run.path.string(), options);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.contract_violation);
  ASSERT_FALSE(result.errors.empty());
  EXPECT_NE(result.errors[0].find("retry budget exhausted"),
            std::string::npos);
  EXPECT_EQ(result.stats.attempts, 2u);
  EXPECT_EQ(failed(result.stats, "corrupt-output"), 2u);
  EXPECT_FALSE(fs::exists(run.path / "merged.csv"));
  EXPECT_FALSE(fs::exists(run.path / shard_file_name(0)));

  const auto manifest =
      RunManifest::parse(read_file(run.path / "orchestrate.manifest"));
  EXPECT_FALSE(manifest.is_done(0));
  ASSERT_EQ(manifest.failures.size(), 2u);
  for (const auto& failure : manifest.failures) {
    EXPECT_EQ(failure.cause, "corrupt-output");
  }
}

TEST(Orchestrate, CacheTallyKeepsEachShardsLatestReport) {
  // A failed attempt's cache report is replaced by its retry's, never
  // added to it.
  const auto plan = toy_plan();
  TempDir staging;
  TempDir run;
  const auto docs = stage_toy_docs(plan, staging.path, 1);

  OrchestrateOptions options;
  options.workers = 1;
  options.shards = 1;
  options.retries = 1;
  options.backoff_base_s = 0.0;
  options.command = [&docs](const WorkerAttempt& attempt) {
    if (attempt.attempt == 0) {
      return sh("echo '" + cache_line(3, 5) + "'; exit 1");
    }
    return sh("cat '" + docs[0] + "' > '" + attempt.out_path + "'; echo '" +
              cache_line(8, 0) + "'");
  };
  const auto result = orchestrate(plan, run.path.string(), options);
  ASSERT_TRUE(result.ok) << (result.errors.empty() ? "" : result.errors[0]);
  EXPECT_EQ(result.stats.retried, 1u);
  EXPECT_EQ(result.stats.cache_hits, 8u);
  EXPECT_EQ(result.stats.cache_misses, 0u);
  EXPECT_NE(result.summary.find(" cache=8/8"), std::string::npos)
      << result.summary;
}

TEST(Orchestrate, ManifestRecordsClassifiedExitFailures) {
  const auto plan = toy_plan();
  TempDir staging;
  TempDir run;
  const auto docs = stage_toy_docs(plan, staging.path, 2);

  OrchestrateOptions options;
  options.workers = 2;
  options.shards = 2;
  options.retries = 2;
  options.backoff_base_s = 0.0;
  options.command = [&docs](const WorkerAttempt& attempt) {
    if (attempt.shard == 1 && attempt.attempt == 0) return sh("exit 7");
    return sh("cat '" + docs[attempt.shard] + "' > '" + attempt.out_path +
              "'");
  };
  const auto result = orchestrate(plan, run.path.string(), options);
  ASSERT_TRUE(result.ok) << (result.errors.empty() ? "" : result.errors[0]);

  const auto manifest =
      RunManifest::parse(read_file(run.path / "orchestrate.manifest"));
  ASSERT_EQ(manifest.failures.size(), 1u);
  EXPECT_EQ(manifest.failures[0].shard, 1u);
  EXPECT_EQ(manifest.failures[0].attempt, 0u);
  EXPECT_EQ(manifest.failures[0].cause, "exit-7");
}

TEST(Orchestrate, WorkerSlotsStayWithinFleetAndNeverCollide) {
  const auto plan = toy_plan();
  TempDir staging;
  TempDir run;
  const auto docs = stage_toy_docs(plan, staging.path, 4);

  std::vector<std::size_t> slots;
  OrchestrateOptions options;
  options.workers = 2;
  options.shards = 4;
  options.command = [&docs, &slots](const WorkerAttempt& attempt) {
    slots.push_back(attempt.slot);
    return sh("cat '" + docs[attempt.shard] + "' > '" + attempt.out_path +
              "'");
  };
  const auto result = orchestrate(plan, run.path.string(), options);
  ASSERT_TRUE(result.ok) << (result.errors.empty() ? "" : result.errors[0]);
  ASSERT_EQ(slots.size(), 4u);
  for (const std::size_t slot : slots) EXPECT_LT(slot, options.workers);
  // Both slots of the 2-wide fleet are actually used (the first two
  // launches fill slots 0 and 1 before either can finish).
  EXPECT_NE(slots[0], slots[1]);
}

TEST(Orchestrate, IdleSlotsNeverDuplicateASlowShard) {
  const auto plan = toy_plan();
  TempDir staging;
  TempDir run;
  const auto docs = stage_toy_docs(plan, staging.path, 2);

  OrchestrateOptions options;
  options.workers = 4;
  options.shards = 2;
  options.retries = 0;
  options.command = [&docs](const WorkerAttempt& attempt) {
    // Shard 1 straggles long after shard 0 finished, with idle slots to
    // spare: it still runs as its one and only attempt.
    return sh(std::string(attempt.shard == 1 ? "sleep 0.4; " : "") + "cat '" +
              docs[attempt.shard] + "' > '" + attempt.out_path + "'");
  };
  const auto result = orchestrate(plan, run.path.string(), options);
  ASSERT_TRUE(result.ok) << (result.errors.empty() ? "" : result.errors[0]);
  EXPECT_EQ(result.stats.attempts, 2u);
  EXPECT_EQ(result.stats.retried, 0u);
}

TEST(Orchestrate, RefusesFreshRunIntoExistingRunDirectory) {
  const auto plan = toy_plan();
  TempDir staging;
  TempDir run;
  const auto docs = stage_toy_docs(plan, staging.path, 1);

  OrchestrateOptions options;
  options.workers = 1;
  options.shards = 1;
  options.command = [&docs](const WorkerAttempt& attempt) {
    return sh("cat '" + docs[0] + "' > '" + attempt.out_path + "'");
  };
  ASSERT_TRUE(orchestrate(plan, run.path.string(), options).ok);

  const auto second = orchestrate(plan, run.path.string(), options);
  EXPECT_FALSE(second.ok);
  ASSERT_FALSE(second.errors.empty());
  EXPECT_NE(second.errors[0].find("--resume"), std::string::npos);
}

TEST(Orchestrate, ResumeRerunsOnlyMissingShards) {
  const auto plan = toy_plan();
  TempDir staging;
  TempDir run;
  const auto docs = stage_toy_docs(plan, staging.path, 4);

  std::size_t launches = 0;
  OrchestrateOptions options;
  options.workers = 2;
  options.shards = 4;
  options.command = [&docs, &launches](const WorkerAttempt& attempt) {
    ++launches;
    return sh("cat '" + docs[attempt.shard] + "' > '" + attempt.out_path +
              "'");
  };
  const auto first = orchestrate(plan, run.path.string(), options);
  ASSERT_TRUE(first.ok) << (first.errors.empty() ? "" : first.errors[0]);
  ASSERT_EQ(launches, 4u);

  // Lose one shard file and the merged output; resume must re-run
  // exactly that shard.
  fs::remove(run.path / "merged.csv");
  fs::remove(run.path / shard_file_name(2));
  launches = 0;
  options.resume = true;
  const auto resumed = orchestrate(plan, run.path.string(), options);
  ASSERT_TRUE(resumed.ok)
      << (resumed.errors.empty() ? "" : resumed.errors[0]);
  EXPECT_EQ(launches, 1u);
  EXPECT_EQ(resumed.stats.resumed, 3u);
  EXPECT_EQ(resumed.merged, first.merged);
}

TEST(Orchestrate, ResumeRecomputesATruncatedShard) {
  const auto plan = toy_plan();
  TempDir staging;
  TempDir run;
  const auto docs = stage_toy_docs(plan, staging.path, 4);

  std::size_t launches = 0;
  OrchestrateOptions options;
  options.workers = 2;
  options.shards = 4;
  options.command = [&docs, &launches](const WorkerAttempt& attempt) {
    ++launches;
    return sh("cat '" + docs[attempt.shard] + "' > '" + attempt.out_path +
              "'");
  };
  const auto first = orchestrate(plan, run.path.string(), options);
  ASSERT_TRUE(first.ok) << (first.errors.empty() ? "" : first.errors[0]);

  // Truncate shard 2's file mid-banner (a crash between write and
  // fsync on a torn filesystem) while its manifest entry says done.
  // Resume must reclassify it as not-done and recompute exactly it —
  // not exit with a fatal merge failure.
  const auto intact = read_file(run.path / shard_file_name(2));
  write_file(run.path / shard_file_name(2), intact.substr(0, 20));
  fs::remove(run.path / "merged.csv");
  launches = 0;
  options.resume = true;
  const auto resumed = orchestrate(plan, run.path.string(), options);
  ASSERT_TRUE(resumed.ok)
      << (resumed.errors.empty() ? "" : resumed.errors[0]);
  EXPECT_EQ(launches, 1u);
  EXPECT_EQ(resumed.stats.resumed, 3u);
  EXPECT_EQ(resumed.merged, first.merged);
}

TEST(Orchestrate, ResumeRecomputesAShardWithACorruptTrailer) {
  const auto plan = toy_plan();
  TempDir staging;
  TempDir run;
  const auto docs = stage_toy_docs(plan, staging.path, 2);

  std::size_t launches = 0;
  OrchestrateOptions options;
  options.workers = 2;
  options.shards = 2;
  options.command = [&docs, &launches](const WorkerAttempt& attempt) {
    ++launches;
    return sh("cat '" + docs[attempt.shard] + "' > '" + attempt.out_path +
              "'");
  };
  const auto first = orchestrate(plan, run.path.string(), options);
  ASSERT_TRUE(first.ok) << (first.errors.empty() ? "" : first.errors[0]);

  // Rewrite shard 1 with a trailered document whose checksum lies (one
  // flipped hex digit): structurally perfect, so only the trailer
  // verification can catch it — and resume must recompute, not trust.
  std::string trailered = util::with_integrity_trailer(toy_doc(plan, 1, 2));
  const std::size_t digit = trailered.size() - 2;
  trailered[digit] = trailered[digit] == '0' ? '1' : '0';
  write_file(run.path / shard_file_name(1), trailered);
  fs::remove(run.path / "merged.csv");
  launches = 0;
  options.resume = true;
  const auto resumed = orchestrate(plan, run.path.string(), options);
  ASSERT_TRUE(resumed.ok)
      << (resumed.errors.empty() ? "" : resumed.errors[0]);
  EXPECT_EQ(launches, 1u);
  EXPECT_EQ(resumed.stats.resumed, 1u);
  EXPECT_EQ(resumed.merged, first.merged);
}

TEST(Orchestrate, ResumeRefusesAMismatchedPlanFingerprint) {
  const auto plan = toy_plan();
  TempDir staging;
  TempDir run;
  const auto docs = stage_toy_docs(plan, staging.path, 1);

  OrchestrateOptions options;
  options.workers = 1;
  options.shards = 1;
  options.command = [&docs](const WorkerAttempt& attempt) {
    return sh("cat '" + docs[0] + "' > '" + attempt.out_path + "'");
  };
  ASSERT_TRUE(orchestrate(plan, run.path.string(), options).ok);

  const auto other = corridor::SweepPlan::from_spec("axis k = 9, 8\n");
  options.resume = true;
  const auto result = orchestrate(other, run.path.string(), options);
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.manifest_mismatch);
  ASSERT_FALSE(result.errors.empty());
  EXPECT_NE(result.errors[0].find("fingerprint"), std::string::npos);
}

TEST(Orchestrate, ShardRottedBeforeMergeIsACountedCorruptOutputFailure) {
  const auto plan = toy_plan();
  TempDir staging;
  TempDir run;
  const auto docs = stage_toy_docs(plan, staging.path, 2);

  OrchestrateOptions options;
  options.workers = 1;  // shard 0 is final before shard 1 launches
  options.shards = 2;
  options.retries = 1;
  options.backoff_base_s = 0.0;
  const std::string rotting = (run.path / shard_file_name(0)).string();
  options.command = [&docs, &rotting](const WorkerAttempt& attempt) {
    std::string script = "cat '" + docs[attempt.shard] + "' > '" +
                         attempt.out_path + "'";
    // Shard 1's worker also truncates the finalized shard 0 file: only
    // the pre-merge check can catch it.
    if (attempt.shard == 1) script += "; : > '" + rotting + "'";
    return sh(script);
  };
  const auto result = orchestrate(plan, run.path.string(), options);
  ASSERT_TRUE(result.ok) << (result.errors.empty() ? "" : result.errors[0]);
  const auto expected =
      corridor::merge_shards({toy_doc(plan, 0, 2), toy_doc(plan, 1, 2)});
  ASSERT_TRUE(expected.ok);
  EXPECT_EQ(result.merged, expected.merged);
  EXPECT_EQ(result.stats.retried, 1u);
  ASSERT_EQ(result.stats.failures_by_class.count("corrupt-output"), 1u);
  EXPECT_EQ(result.stats.failures_by_class.at("corrupt-output"), 1u);
  EXPECT_NE(result.summary.find("corrupt-output=1"), std::string::npos)
      << result.summary;
}

TEST(Orchestrate, OutputTornInsideItsLastRowIsRejectedAndRetried) {
  // A write torn inside the last row leaves every row's index, so the
  // row count matches; only the trailer it lost tells.
  const auto plan = toy_plan();
  TempDir staging;
  TempDir run;
  const auto docs = stage_toy_docs(plan, staging.path, 1);
  const std::string whole = read_file(docs[0]);
  const std::size_t torn = whole.rfind("@railcorr-crc") - 2;

  OrchestrateOptions options;
  options.workers = 1;
  options.shards = 1;
  options.retries = 1;
  options.backoff_base_s = 0.0;
  std::ostringstream log;
  options.log = &log;
  options.command = [&docs, torn](const WorkerAttempt& attempt) {
    const std::string bytes =
        attempt.attempt == 0 ? " | head -c " + std::to_string(torn) : "";
    return sh("cat '" + docs[0] + "'" + bytes + " > '" + attempt.out_path +
              "'");
  };
  const auto result = orchestrate(plan, run.path.string(), options);
  ASSERT_TRUE(result.ok) << (result.errors.empty() ? "" : result.errors[0]);
  EXPECT_EQ(result.merged, corridor::merge_shards({toy_doc(plan, 0, 1)}).merged);
  EXPECT_EQ(result.stats.retried, 1u);
  ASSERT_EQ(result.stats.failures_by_class.count("corrupt-output"), 1u);
  EXPECT_EQ(result.stats.failures_by_class.at("corrupt-output"), 1u);
  EXPECT_NE(log.str().find("shard 0 attempt 0 output from host local "
                           "rejected: missing integrity trailer (torn "
                           "write)"),
            std::string::npos)
      << log.str();
}

TEST(Orchestrate, ShardFlippedBeforeMergeFailsTheCompareAndTheFullCheck) {
  const auto plan = toy_plan();
  TempDir staging;
  TempDir run;
  // Trailered documents: a same-length byte flip is then the trailer's
  // to catch, once the pre-merge check finds the file no longer equals
  // the bytes publish verified.
  std::vector<std::string> docs;
  for (std::size_t shard = 0; shard < 2; ++shard) {
    const fs::path path = staging.path / ("doc_" + std::to_string(shard));
    write_file(path, util::with_integrity_trailer(toy_doc(plan, shard, 2)));
    docs.push_back(path.string());
  }
  // The '1' of shard 0's last metric "10" becomes a '2'.
  const std::string shard0 = read_file(docs[0]);
  const std::size_t flip = shard0.rfind(",10\n") + 1;

  OrchestrateOptions options;
  options.workers = 1;  // shard 0 is final before shard 1 launches
  options.shards = 2;
  options.retries = 1;
  options.backoff_base_s = 0.0;
  std::ostringstream log;
  options.log = &log;
  const std::string rotting = (run.path / shard_file_name(0)).string();
  options.command = [&docs, &rotting, flip](const WorkerAttempt& attempt) {
    std::string script = "cat '" + docs[attempt.shard] + "' > '" +
                         attempt.out_path + "'";
    if (attempt.shard == 1) {
      script += "; printf 2 | dd of='" + rotting + "' bs=1 seek=" +
                std::to_string(flip) + " conv=notrunc 2>/dev/null";
    }
    return sh(script);
  };
  const auto result = orchestrate(plan, run.path.string(), options);
  ASSERT_TRUE(result.ok) << (result.errors.empty() ? "" : result.errors[0]);
  const auto expected =
      corridor::merge_shards({toy_doc(plan, 0, 2), toy_doc(plan, 1, 2)});
  ASSERT_TRUE(expected.ok);
  EXPECT_EQ(result.merged, expected.merged);
  EXPECT_EQ(read_file(run.path / "merged.csv"),
            util::with_integrity_trailer(expected.merged));
  EXPECT_EQ(result.stats.retried, 1u);
  ASSERT_EQ(result.stats.failures_by_class.count("corrupt-output"), 1u);
  EXPECT_EQ(result.stats.failures_by_class.at("corrupt-output"), 1u);
  EXPECT_NE(log.str().find("pre-merge: shard 0 is invalid (integrity "
                           "trailer mismatch (truncated or corrupted))"),
            std::string::npos)
      << log.str();
}

TEST(Orchestrate, MergeWriteFailureStillEndsWithTheRunSummary) {
  const auto plan = toy_plan();
  TempDir staging;
  TempDir run;
  const auto docs = stage_toy_docs(plan, staging.path, 1);
  // A directory where merged.csv must go: the final write fails.
  fs::create_directory(run.path / "merged.csv");

  OrchestrateOptions options;
  options.workers = 1;
  options.shards = 1;
  options.command = [&docs](const WorkerAttempt& attempt) {
    return sh("cat '" + docs[0] + "' > '" + attempt.out_path + "'");
  };
  const auto result = orchestrate(plan, run.path.string(), options);
  EXPECT_FALSE(result.ok);
  ASSERT_FALSE(result.errors.empty());
  EXPECT_NE(result.errors[0].find("cannot write merged output"),
            std::string::npos);
  EXPECT_FALSE(result.summary.empty());
  const std::string manifest = read_file(run.path / "orchestrate.manifest");
  const std::size_t last = manifest.rfind('\n', manifest.size() - 2);
  EXPECT_EQ(manifest.compare(last + 1, 18, "info run summary: "), 0)
      << manifest;
}

// ---------------------------------------------------------------------
// Distributed fleets: toy hosts that refuse, flap, or corrupt
// transfers, driven through the same scheduler via options.hosts.

TEST(OrchestrateFleet, RefusingHostIsQuarantinedAndRunDegrades) {
  const auto plan = toy_plan();
  TempDir staging;
  TempDir run;
  const auto docs = stage_toy_docs(plan, staging.path, 4);

  OrchestrateOptions options;
  options.workers = 2;
  options.shards = 4;
  // Zero retry budget on purpose: every launch-refused failure charges
  // the *host*, never the shard — a run that completes proves it.
  options.retries = 0;
  options.backoff_base_s = 0.0;
  options.hosts = {"bad", "good"};
  options.health.quarantine_after = 2;
  options.command = [&docs](const WorkerAttempt& attempt) {
    if (attempt.host == "bad") return sh("exit 255");  // refused launch
    return sh("cat '" + docs[attempt.shard] + "' > '" + attempt.out_path +
              "'");
  };
  const auto result = orchestrate(plan, run.path.string(), options);
  ASSERT_TRUE(result.ok) << (result.errors.empty() ? "" : result.errors[0]);
  EXPECT_GE(failed(result.stats, "launch-refused"), 2u);
  EXPECT_GE(result.stats.host_quarantines, 1u);

  // Byte-identical to a non-distributed toy merge: which host computed
  // a shard is invisible in its bytes.
  const auto expected =
      corridor::merge_shards({toy_doc(plan, 0, 4), toy_doc(plan, 1, 4),
                              toy_doc(plan, 2, 4), toy_doc(plan, 3, 4)});
  ASSERT_TRUE(expected.ok);
  EXPECT_EQ(result.merged, expected.merged);

  // The quarantine is audited in the manifest.
  const auto manifest =
      RunManifest::parse(read_file(run.path / "orchestrate.manifest"));
  bool quarantined = false;
  for (const auto& event : manifest.host_events) {
    if (event.host == "bad" && event.event == "quarantine") {
      quarantined = true;
    }
  }
  EXPECT_TRUE(quarantined);
  bool refused_recorded = false;
  for (const auto& failure : manifest.failures) {
    if (failure.cause == "launch-refused") refused_recorded = true;
  }
  EXPECT_TRUE(refused_recorded);
}

TEST(OrchestrateFleet, AllHostsDeadStopsWithAResumableManifest) {
  const auto plan = toy_plan();
  TempDir staging;
  TempDir run;
  const auto docs = stage_toy_docs(plan, staging.path, 2);

  OrchestrateOptions options;
  options.workers = 2;
  options.shards = 2;
  options.retries = 5;
  options.backoff_base_s = 0.0;
  options.hosts = {"bad1", "bad2"};
  options.health.quarantine_after = 1;
  options.health.dead_after = 1;
  options.command = [](const WorkerAttempt&) { return sh("exit 255"); };
  const auto result = orchestrate(plan, run.path.string(), options);
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.fleet_dead);
  EXPECT_FALSE(result.contract_violation);
  EXPECT_EQ(result.stats.hosts_dead, 2u);
  ASSERT_FALSE(result.errors.empty());
  EXPECT_NE(result.errors[0].find("dead"), std::string::npos);
  EXPECT_NE(result.errors[0].find("--resume"), std::string::npos);

  // Both deaths are audited; the manifest parses and is resumable.
  const auto manifest =
      RunManifest::parse(read_file(run.path / "orchestrate.manifest"));
  std::size_t dead = 0;
  for (const auto& event : manifest.host_events) {
    if (event.event == "dead") ++dead;
  }
  EXPECT_EQ(dead, 2u);

  // Resume onto a healthy fleet finishes the grid byte-identically.
  options.hosts = {"good"};
  options.health = FleetHealthOptions{};
  options.command = [&docs](const WorkerAttempt& attempt) {
    return sh("cat '" + docs[attempt.shard] + "' > '" + attempt.out_path +
              "'");
  };
  options.resume = true;
  const auto resumed = orchestrate(plan, run.path.string(), options);
  ASSERT_TRUE(resumed.ok)
      << (resumed.errors.empty() ? "" : resumed.errors[0]);
  const auto expected =
      corridor::merge_shards({toy_doc(plan, 0, 2), toy_doc(plan, 1, 2)});
  ASSERT_TRUE(expected.ok);
  EXPECT_EQ(resumed.merged, expected.merged);
}

TEST(OrchestrateFleet, QuarantinedHostRecoversViaReProbe) {
  const auto plan = toy_plan();
  TempDir staging;
  TempDir run;
  const auto docs = stage_toy_docs(plan, staging.path, 4);

  std::size_t flaky_launches = 0;
  OrchestrateOptions options;
  options.workers = 1;  // one slot: every attempt lands on the fleet's pick
  options.shards = 4;
  options.retries = 0;
  options.backoff_base_s = 0.0;
  options.hosts = {"flaky"};
  options.health.quarantine_after = 2;
  options.health.probe_base_s = 0.05;  // fast re-probe for the test
  options.health.dead_after = 5;
  options.command = [&docs, &flaky_launches](const WorkerAttempt& attempt) {
    // The first two launches hit a broken transport; every later one
    // (the re-probe and onward) succeeds.
    if (flaky_launches++ < 2) return sh("exit 255");
    return sh("cat '" + docs[attempt.shard] + "' > '" + attempt.out_path +
              "'");
  };
  const auto result = orchestrate(plan, run.path.string(), options);
  ASSERT_TRUE(result.ok) << (result.errors.empty() ? "" : result.errors[0]);
  EXPECT_EQ(result.stats.host_quarantines, 1u);
  EXPECT_EQ(result.stats.host_recoveries, 1u);

  const auto manifest =
      RunManifest::parse(read_file(run.path / "orchestrate.manifest"));
  bool probed = false, recovered = false;
  for (const auto& event : manifest.host_events) {
    if (event.event == "probe") probed = true;
    if (event.event == "recover") recovered = true;
  }
  EXPECT_TRUE(probed);
  EXPECT_TRUE(recovered);
}

TEST(OrchestrateFleet, CorruptTransferIsRejectedAndRecomputed) {
  const auto plan = toy_plan();
  TempDir staging;
  TempDir run;
  const auto docs = stage_toy_docs(plan, staging.path, 2);

  std::size_t fetches = 0;
  OrchestrateOptions options;
  options.workers = 1;
  options.shards = 2;
  options.retries = 0;  // transfer corruption must not charge the shard
  options.backoff_base_s = 0.0;
  options.hosts = {"h1"};
  options.health.quarantine_after = 5;
  options.command = [&docs](const WorkerAttempt& attempt) {
    // Remote workers write to the remote-side path; the fetch step
    // brings it back.
    return sh("cat '" + docs[attempt.shard] + "' > '" +
              attempt.worker_path(attempt.out_path) + "'");
  };
  options.fetch = [&fetches](const WorkerAttempt& attempt) {
    if (fetches++ == 0) {
      // A torn transfer: only a prefix of the shard file arrives.
      return sh("head -c 20 '" + attempt.worker_path(attempt.out_path) +
                "' > '" + attempt.out_path + "'");
    }
    return sh("cat '" + attempt.worker_path(attempt.out_path) + "' > '" +
              attempt.out_path + "'");
  };
  const auto result = orchestrate(plan, run.path.string(), options);
  ASSERT_TRUE(result.ok) << (result.errors.empty() ? "" : result.errors[0]);
  EXPECT_EQ(failed(result.stats, "corrupt-transfer"), 1u);

  const auto manifest =
      RunManifest::parse(read_file(run.path / "orchestrate.manifest"));
  bool corrupt_recorded = false;
  for (const auto& failure : manifest.failures) {
    if (failure.cause == "corrupt-transfer") corrupt_recorded = true;
  }
  EXPECT_TRUE(corrupt_recorded);

  // The fetched-then-recomputed grid is byte-identical.
  const auto expected =
      corridor::merge_shards({toy_doc(plan, 0, 2), toy_doc(plan, 1, 2)});
  ASSERT_TRUE(expected.ok);
  EXPECT_EQ(result.merged, expected.merged);
}

TEST(OrchestrateFleet, FetchExitStatusIsNoVerdict) {
  const auto plan = toy_plan();
  TempDir staging;
  TempDir run;
  const auto docs = stage_toy_docs(plan, staging.path, 2);

  OrchestrateOptions options;
  options.workers = 1;
  options.shards = 2;
  options.retries = 0;
  options.backoff_base_s = 0.0;
  options.hosts = {"h1"};
  options.command = [&docs](const WorkerAttempt& attempt) {
    return sh("cat '" + docs[attempt.shard] + "' > '" +
              attempt.worker_path(attempt.out_path) + "'");
  };
  // The copy lands whole, then the transfer tool reports a failure: the
  // shard is judged by its bytes.
  options.fetch = [](const WorkerAttempt& attempt) {
    return sh("cat '" + attempt.worker_path(attempt.out_path) + "' > '" +
              attempt.out_path + "'; exit 3");
  };
  const auto result = orchestrate(plan, run.path.string(), options);
  ASSERT_TRUE(result.ok) << (result.errors.empty() ? "" : result.errors[0]);
  EXPECT_EQ(result.stats.attempts, 2u);
  EXPECT_EQ(result.stats.retried, 0u);
  EXPECT_TRUE(result.stats.failures_by_class.empty());
  const auto expected =
      corridor::merge_shards({toy_doc(plan, 0, 2), toy_doc(plan, 1, 2)});
  ASSERT_TRUE(expected.ok);
  EXPECT_EQ(result.merged, expected.merged);
}

/// A traced one-host toy fleet with a fetch step, two shards on one
/// slot: each worker writes its shard document and a minimal valid trace
/// and metrics document to their worker-side paths, and `fetch` copies
/// whichever file it is asked for back.
OrchestrateOptions traced_toy_fleet(const std::vector<std::string>& docs,
                                    const fs::path& staging,
                                    const fs::path& trace_dir) {
  const std::string trace = (staging / "trace.txt").string();
  const std::string metrics = (staging / "metrics.txt").string();
  write_file(trace,
             "{\"railcorrTrace\":1,\"epochUsec\":0,\"displayTimeUnit\":\"ms\","
             "\"traceEvents\":[\n]}\n");
  write_file(metrics,
             "{\"railcorrMetrics\":1,\"sources\":1,\n\"counters\":{},\n"
             "\"gauges\":{},\n\"histograms\":{}}\n");
  OrchestrateOptions options;
  options.workers = 1;
  options.shards = 2;
  options.retries = 0;
  options.backoff_base_s = 0.0;
  options.hosts = {"h1"};
  options.health.quarantine_after = 5;
  options.trace_dir = trace_dir.string();
  options.command = [docs, trace, metrics](const WorkerAttempt& attempt) {
    return sh("cat '" + docs[attempt.shard] + "' > '" +
              attempt.worker_path(attempt.out_path) + "' && cp '" + trace +
              "' '" + attempt.worker_path(attempt.trace_path) + "' && cp '" +
              metrics + "' '" + attempt.worker_path(attempt.metrics_path) +
              "'");
  };
  options.fetch = [](const WorkerAttempt& attempt) {
    return sh("cat '" + attempt.worker_path(attempt.out_path) + "' > '" +
              attempt.out_path + "'");
  };
  return options;
}

/// Every worker-side `*.remote` copy left under `dir`.
std::vector<std::string> remote_copies(const fs::path& dir) {
  std::vector<std::string> found;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.path().extension() == ".remote") {
      found.push_back(entry.path().string());
    }
  }
  return found;
}

TEST(OrchestrateFleet, TracedFetchFleetHasOneFetchSpanPerAttempt) {
  const auto plan = toy_plan();
  TempDir staging;
  TempDir run;
  const fs::path telemetry = run.path / "telemetry";
  const auto options = traced_toy_fleet(
      stage_toy_docs(plan, staging.path, 2), staging.path, telemetry);
  const auto result = orchestrate(plan, run.path.string(), options);
  ASSERT_TRUE(result.ok) << (result.errors.empty() ? "" : result.errors[0]);
  ASSERT_EQ(result.stats.attempts, 2u);

  // The shard, metrics and trace of an attempt come back through one
  // fetch child, so the fleet timeline holds one fetch span for each.
  const std::string trace = read_file(telemetry / "trace.json");
  std::size_t fetch_spans = 0;
  for (std::size_t at = trace.find("\"name\":\"fetch\"");
       at != std::string::npos;
       at = trace.find("\"name\":\"fetch\"", at + 1)) {
    ++fetch_spans;
  }
  EXPECT_EQ(fetch_spans, 2u);
  for (std::size_t shard = 0; shard < 2; ++shard) {
    EXPECT_TRUE(fs::exists(telemetry / trace_file_name(shard, 0)));
    EXPECT_TRUE(fs::exists(telemetry / metrics_file_name(shard, 0)));
  }
}

TEST(OrchestrateFleet, TracedCorruptTransferLeavesNoWorkerSideCopy) {
  const auto plan = toy_plan();
  TempDir staging;
  TempDir run;
  const fs::path telemetry = run.path / "telemetry";
  auto options = traced_toy_fleet(stage_toy_docs(plan, staging.path, 2),
                                  staging.path, telemetry);
  std::size_t fetches = 0;
  options.fetch = [&fetches](const WorkerAttempt& attempt) {
    // The first pull, shard 0 attempt 0's shard file, is torn.
    return sh((fetches++ == 0 ? "head -c 20 '" : "cat '") +
              attempt.worker_path(attempt.out_path) + "' > '" +
              attempt.out_path + "'");
  };
  const auto result = orchestrate(plan, run.path.string(), options);
  ASSERT_TRUE(result.ok) << (result.errors.empty() ? "" : result.errors[0]);
  EXPECT_EQ(failed(result.stats, "corrupt-transfer"), 1u);
  EXPECT_EQ(remote_copies(run.path), std::vector<std::string>{});

  // The published attempts (shard 1's first, shard 0's retry) pulled
  // their telemetry back. The rejected one keeps what arrived intact,
  // as a rejected local attempt does: its torn shard pull did not stop
  // the telemetry pulls of the same fetch child.
  for (const auto& [shard, attempt] : {std::pair{0, 1}, std::pair{1, 0}}) {
    EXPECT_TRUE(fs::exists(telemetry / trace_file_name(shard, attempt)));
    EXPECT_TRUE(fs::exists(telemetry / metrics_file_name(shard, attempt)));
  }
  EXPECT_TRUE(fs::exists(telemetry / trace_file_name(0, 0)));
  EXPECT_TRUE(fs::exists(telemetry / metrics_file_name(0, 0)));
}

TEST(OrchestrateFleet, FailedTelemetryPullCostsOnlyTelemetry) {
  const auto plan = toy_plan();
  TempDir staging;
  TempDir run;
  const fs::path telemetry = run.path / "telemetry";
  auto options = traced_toy_fleet(stage_toy_docs(plan, staging.path, 2),
                                  staging.path, telemetry);
  const auto copy = options.fetch;
  options.fetch = [copy](const WorkerAttempt& attempt) {
    if (attempt.shard == 1 && attempt.out_path == attempt.metrics_path) {
      return std::vector<std::string>{"/bin/false"};
    }
    return copy(attempt);
  };
  const auto result = orchestrate(plan, run.path.string(), options);
  ASSERT_TRUE(result.ok) << (result.errors.empty() ? "" : result.errors[0]);
  EXPECT_EQ(result.stats.retried, 0u);
  EXPECT_TRUE(result.stats.failures_by_class.empty());
  EXPECT_EQ(remote_copies(run.path), std::vector<std::string>{});

  EXPECT_TRUE(fs::exists(telemetry / trace_file_name(0, 0)));
  EXPECT_TRUE(fs::exists(telemetry / metrics_file_name(0, 0)));
  EXPECT_FALSE(fs::exists(telemetry / metrics_file_name(1, 0)));
  // The trace pull still runs after the failed metrics pull.
  EXPECT_TRUE(fs::exists(telemetry / trace_file_name(1, 0)));
}

TEST(OrchestrateFleet, StalledTelemetryPullIsKilledAtTheFetchDeadline) {
  const auto plan = toy_plan();
  TempDir staging;
  TempDir run;
  const fs::path telemetry = run.path / "telemetry";
  auto options = traced_toy_fleet(stage_toy_docs(plan, staging.path, 2),
                                  staging.path, telemetry);
  options.fetch_timeout_s = 0.5;
  const auto copy = options.fetch;
  options.fetch = [copy](const WorkerAttempt& attempt) {
    if (attempt.shard == 0 && attempt.out_path == attempt.trace_path) {
      return sh("sleep 3600");
    }
    return copy(attempt);
  };
  const auto started = std::chrono::steady_clock::now();
  const auto result = orchestrate(plan, run.path.string(), options);
  EXPECT_LT(std::chrono::steady_clock::now() - started,
            std::chrono::seconds(10));
  ASSERT_TRUE(result.ok) << (result.errors.empty() ? "" : result.errors[0]);
  EXPECT_EQ(result.stats.retried, 0u);
  EXPECT_TRUE(result.stats.failures_by_class.empty());
  EXPECT_EQ(remote_copies(run.path), std::vector<std::string>{});

  // Shard 0 is done; only its killed trace pull is lost.
  EXPECT_TRUE(fs::exists(run.path / shard_file_name(0)));
  EXPECT_TRUE(fs::exists(telemetry / metrics_file_name(0, 0)));
  EXPECT_FALSE(fs::exists(telemetry / trace_file_name(0, 0)));
}

TEST(OrchestrateFleet, LocalHostRunsWithoutFetchOrExitCodeMapping) {
  const auto plan = toy_plan();
  TempDir staging;
  const auto docs = stage_toy_docs(plan, staging.path, 2);

  // An explicit `local` host and an empty host list are the same fleet.
  const std::vector<std::string> local = {std::string(kLocalHost)};
  for (const auto& hosts : {std::vector<std::string>{}, local}) {
    SCOPED_TRACE(hosts.empty() ? "no hosts" : "--hosts local");
    TempDir run;
    OrchestrateOptions options;
    options.workers = 2;
    options.shards = 2;
    options.retries = 1;
    options.backoff_base_s = 0.0;
    options.hosts = hosts;
    std::size_t failures = 0;
    options.command = [&docs, &failures](const WorkerAttempt& attempt) {
      EXPECT_EQ(attempt.host, kLocalHost);
      // The worker writes out_path itself on the local host even with
      // a fetch builder configured: no fetch step applies.
      EXPECT_EQ(attempt.worker_path(attempt.out_path), attempt.out_path);
      if (attempt.shard == 0 && failures++ == 0) {
        // Exit 255 on the *local* host is a plain worker failure, not a
        // transport signature — it must charge the shard's retry budget.
        return sh("exit 255");
      }
      return sh("cat '" + docs[attempt.shard] + "' > '" + attempt.out_path +
                "'");
    };
    options.fetch = [](const WorkerAttempt&) -> std::vector<std::string> {
      return {"/bin/false"};  // must never be invoked for local attempts
    };
    const auto result = orchestrate(plan, run.path.string(), options);
    ASSERT_TRUE(result.ok) << (result.errors.empty() ? "" : result.errors[0]);
    EXPECT_EQ(failed(result.stats, "launch-refused"), 0u);
    EXPECT_EQ(failed(result.stats, "connection-lost"), 0u);
    EXPECT_GE(result.stats.retried, 1u);

    const auto manifest =
        RunManifest::parse(read_file(run.path / "orchestrate.manifest"));
    ASSERT_FALSE(manifest.failures.empty());
    EXPECT_EQ(manifest.failures[0].cause, "exit-255");
    EXPECT_TRUE(manifest.host_events.empty());
  }
}

// ---------------------------------------------------------------------
// End-to-end against the real binary: worker killed mid-shard, retried,
// merged bytes identical to the single-process sweep.

/// The railcorr CLI next to this test executable (both land in the
/// build root), overridable via RAILCORR_CLI; empty when absent.
std::string find_cli() {
  if (const char* env = std::getenv("RAILCORR_CLI")) return env;
  const fs::path sibling =
      fs::path(self_executable_path(nullptr)).parent_path() / "railcorr";
  if (fs::exists(sibling)) return sibling.string();
  return {};
}

corridor::SweepPlan real_plan() {
  return corridor::SweepPlan::from_spec(
      "base = paper\n"
      "set max_repeaters = 2\n"
      "set isd_search.isd_step_m = 100\n"
      "set isd_search.sample_step_m = 50\n"
      "axis radio.lp_eirp_dbm = 37, 40\n"
      "axis timetable.trains_per_hour = 8, 12\n");
}

TEST(OrchestrateEndToEnd, KilledWorkerIsRetriedByteIdentically) {
  const std::string cli = find_cli();
  if (cli.empty()) {
    GTEST_SKIP() << "railcorr CLI not built next to the test binary";
  }
  const auto plan = real_plan();
  TempDir run;

  OrchestrateOptions options;
  options.workers = 3;
  options.shards = 4;
  options.retries = 2;
  const std::string worker_plan = (run.path / "plan.sweep").string();
  options.command = [&cli, &worker_plan](const WorkerAttempt& attempt) {
    std::vector<std::string> argv = {
        cli,     "sweep",
        "--plan", worker_plan,
        "--shard", std::to_string(attempt.shard) + "/" +
                       std::to_string(attempt.shard_count),
        "--out",  attempt.out_path,
        "--progress", "--threads", "2",
    };
    if (attempt.shard == 1 && attempt.attempt == 0) {
      // SIGKILL after the start event, before any cell computes: a
      // genuine mid-shard worker death.
      argv.push_back("--fault");
      argv.push_back("kill=1");
    }
    return argv;
  };
  const auto result = orchestrate(plan, run.path.string(), options);
  ASSERT_TRUE(result.ok) << (result.errors.empty() ? "" : result.errors[0]);
  EXPECT_EQ(result.stats.retried, 1u);
  // The kill is classified and audited.
  const auto manifest =
      RunManifest::parse(read_file(run.path / "orchestrate.manifest"));
  ASSERT_EQ(manifest.failures.size(), 1u);
  EXPECT_EQ(manifest.failures[0].shard, 1u);
  EXPECT_EQ(manifest.failures[0].attempt, 0u);
  EXPECT_EQ(manifest.failures[0].cause, "signal-9");

  const std::string single =
      core::run_sweep_shard(plan, corridor::ShardSpec{0, 1});
  EXPECT_EQ(result.merged, single);
}

TEST(OrchestrateEndToEnd, ResumeMatchesSingleProcessBytes) {
  const std::string cli = find_cli();
  if (cli.empty()) {
    GTEST_SKIP() << "railcorr CLI not built next to the test binary";
  }
  const auto plan = real_plan();
  TempDir run;

  OrchestrateOptions options;
  options.workers = 2;
  options.shards = 4;
  const std::string worker_plan = (run.path / "plan.sweep").string();
  options.command = [&cli, &worker_plan](const WorkerAttempt& attempt) {
    return std::vector<std::string>{
        cli,     "sweep",
        "--plan", worker_plan,
        "--shard", std::to_string(attempt.shard) + "/" +
                       std::to_string(attempt.shard_count),
        "--out",  attempt.out_path,
        "--progress", "--threads", "1",
    };
  };
  ASSERT_TRUE(orchestrate(plan, run.path.string(), options).ok);

  fs::remove(run.path / "merged.csv");
  fs::remove(run.path / shard_file_name(3));
  options.resume = true;
  const auto resumed = orchestrate(plan, run.path.string(), options);
  ASSERT_TRUE(resumed.ok)
      << (resumed.errors.empty() ? "" : resumed.errors[0]);
  EXPECT_EQ(resumed.stats.resumed, 3u);
  EXPECT_EQ(resumed.merged,
            core::run_sweep_shard(plan, corridor::ShardSpec{0, 1}));
}

TEST(OrchestrateEndToEnd, WorkerWriteTornInsideItsLastRowIsNeverMerged) {
  // The worker's own torn-write fault point, cutting the last row of a
  // one-shard run short by four bytes: its value loses digits, and
  // every row still has its index.
  const std::string cli = find_cli();
  if (cli.empty()) {
    GTEST_SKIP() << "railcorr CLI not built next to the test binary";
  }
  const auto plan = corridor::SweepPlan::from_spec(
      "base = paper\n"
      "axis radio.lp_eirp_dbm = 30, 32\n"
      "axis timetable.trains_per_hour = 2, 4\n"
      "axis radio.hp_eirp_dbm = 55, 58\n");
  const std::string single =
      core::run_sweep_shard(plan, corridor::ShardSpec{0, 1});
  const std::size_t torn = single.size() - 4;
  TempDir run;

  OrchestrateOptions options;
  options.workers = 1;
  options.shards = 1;
  options.retries = 1;
  options.backoff_base_s = 0.0;
  const std::string worker_plan = (run.path / "plan.sweep").string();
  options.command = [&cli, &worker_plan, torn](const WorkerAttempt& attempt) {
    std::vector<std::string> argv = {
        cli,      "sweep",          "--plan",  worker_plan,
        "--shard", "0/1",           "--out",   attempt.out_path,
        "--progress", "--threads", "1",
    };
    if (attempt.attempt == 0) {
      argv.push_back("--fault");
      argv.push_back("torn-write=" + std::to_string(torn));
    }
    return argv;
  };
  const auto result = orchestrate(plan, run.path.string(), options);
  ASSERT_TRUE(result.ok) << (result.errors.empty() ? "" : result.errors[0]);
  EXPECT_EQ(result.stats.retried, 1u);
  ASSERT_EQ(result.stats.failures_by_class.count("corrupt-output"), 1u);
  EXPECT_EQ(result.merged, single);
  EXPECT_EQ(read_file(run.path / "merged.csv"),
            util::with_integrity_trailer(single));
}

}  // namespace
}  // namespace railcorr::orch
