// Unit tests for fptc::util — RNG determinism and distribution sanity,
// table/CSV rendering, heatmaps, campaign-scale resolution, the run
// journal and the fault injector.
#include "fptc/util/csv.hpp"
#include "fptc/util/durable.hpp"
#include "fptc/util/env.hpp"
#include "fptc/util/fault.hpp"
#include "fptc/util/heatmap.hpp"
#include "fptc/util/journal.hpp"
#include "fptc/util/rng.hpp"
#include "fptc/util/table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>

namespace {

using fptc::util::Rng;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a(), b());
    }
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        if (a() == b()) {
            ++equal;
        }
    }
    EXPECT_LT(equal, 2);
}

TEST(Rng, ZeroSeedIsValid)
{
    Rng rng(0);
    // xoshiro with an all-zero state would be stuck at 0; splitmix expansion
    // must prevent that.
    bool any_nonzero = false;
    for (int i = 0; i < 8; ++i) {
        any_nonzero |= rng() != 0;
    }
    EXPECT_TRUE(any_nonzero);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        ASSERT_GE(u, -3.0);
        ASSERT_LT(u, 5.0);
    }
}

TEST(Rng, UniformIntCoversInclusiveRange)
{
    Rng rng(3);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.uniform_int(2, 6);
        ASSERT_GE(v, 2);
        ASSERT_LE(v, 6);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u); // all of 2..6 hit
}

TEST(Rng, UniformIntSingleton)
{
    Rng rng(3);
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(rng.uniform_int(9, 9), 9);
    }
}

TEST(Rng, NormalMoments)
{
    Rng rng(11);
    double sum = 0.0;
    double sum_sq = 0.0;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sum_sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, PoissonMeanMatchesLambda)
{
    Rng rng(13);
    for (const double lambda : {0.5, 4.0, 30.0, 100.0}) {
        double total = 0.0;
        constexpr int n = 4000;
        for (int i = 0; i < n; ++i) {
            total += rng.poisson(lambda);
        }
        EXPECT_NEAR(total / n, lambda, lambda * 0.1 + 0.1) << "lambda=" << lambda;
    }
}

TEST(Rng, PoissonZeroLambda)
{
    Rng rng(1);
    EXPECT_EQ(rng.poisson(0.0), 0);
    EXPECT_EQ(rng.poisson(-1.0), 0);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(17);
    double total = 0.0;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i) {
        total += rng.exponential(2.0);
    }
    EXPECT_NEAR(total / n, 0.5, 0.02);
}

TEST(Rng, CategoricalFollowsWeights)
{
    Rng rng(19);
    const double weights[] = {1.0, 3.0, 0.0, 6.0};
    std::array<int, 4> counts{};
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i) {
        ++counts[rng.categorical(weights)];
    }
    EXPECT_EQ(counts[2], 0);
    EXPECT_NEAR(counts[0] / double(n), 0.1, 0.02);
    EXPECT_NEAR(counts[1] / double(n), 0.3, 0.02);
    EXPECT_NEAR(counts[3] / double(n), 0.6, 0.02);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(23);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto shuffled = v;
    rng.shuffle(shuffled);
    auto sorted = shuffled;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, v);
}

TEST(Rng, SampleWithoutReplacementDistinct)
{
    Rng rng(29);
    const auto sample = rng.sample_without_replacement(100, 30);
    EXPECT_EQ(sample.size(), 30u);
    std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 30u);
    for (const auto i : sample) {
        EXPECT_LT(i, 100u);
    }
}

TEST(Rng, SampleWithoutReplacementClampsToN)
{
    Rng rng(29);
    const auto sample = rng.sample_without_replacement(5, 50);
    EXPECT_EQ(sample.size(), 5u);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng parent(5);
    Rng child = parent.fork();
    // Child and parent should not emit the same sequence.
    int equal = 0;
    for (int i = 0; i < 32; ++i) {
        if (parent() == child()) {
            ++equal;
        }
    }
    EXPECT_LT(equal, 2);
}

TEST(MixSeed, DistinctForDistinctStreams)
{
    std::set<std::uint64_t> seeds;
    for (std::uint64_t a = 0; a < 10; ++a) {
        for (std::uint64_t b = 0; b < 10; ++b) {
            seeds.insert(fptc::util::mix_seed(42, a, b));
        }
    }
    EXPECT_EQ(seeds.size(), 100u);
}

TEST(Table, RendersAlignedColumns)
{
    fptc::util::Table table("Title");
    table.set_header({"A", "Long header"});
    table.add_row({"x", "1"});
    table.add_row({"longer", "2"});
    table.add_footnote("note");
    const auto text = table.to_string();
    EXPECT_NE(text.find("Title"), std::string::npos);
    EXPECT_NE(text.find("Long header"), std::string::npos);
    EXPECT_NE(text.find("note"), std::string::npos);
    EXPECT_EQ(table.row_count(), 2u);
}

TEST(Table, MarkdownHasSeparatorRow)
{
    fptc::util::Table table;
    table.set_header({"A", "B"});
    table.add_row({"1", "2"});
    const auto md = table.to_markdown();
    EXPECT_NE(md.find("|---|---|"), std::string::npos);
}

TEST(Table, FormatMeanCi)
{
    EXPECT_EQ(fptc::util::format_mean_ci(96.8, 0.37), "96.80 ±0.37");
    EXPECT_EQ(fptc::util::format_double(1.0 / 3.0, 3), "0.333");
    EXPECT_EQ(fptc::util::format_double(std::nan(""), 2), "n/a");
}

TEST(Csv, EscapesSpecialCharacters)
{
    EXPECT_EQ(fptc::util::csv_escape("plain"), "plain");
    EXPECT_EQ(fptc::util::csv_escape("a,b"), "\"a,b\"");
    EXPECT_EQ(fptc::util::csv_escape("q\"q"), "\"q\"\"q\"");
}

TEST(Csv, RoundTripContent)
{
    fptc::util::CsvWriter csv({"x", "y"});
    csv.add_row({"1", "two,three"});
    const auto text = csv.to_string();
    EXPECT_EQ(text, "x,y\n1,\"two,three\"\n");
}

TEST(Heatmap, RendersExpectedDimensions)
{
    std::vector<float> values(16, 0.0f);
    values[5] = 10.0f;
    const auto text = fptc::util::render_heatmap(values, 4, 4);
    // 4 content rows + 2 border rows + scale line.
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 7);
    EXPECT_NE(text.find('@'), std::string::npos); // the hot cell
}

TEST(Heatmap, DownsamplesLargeInput)
{
    std::vector<float> values(128 * 128, 1.0f);
    fptc::util::HeatmapOptions options;
    options.max_side = 16;
    options.show_scale = false;
    const auto text = fptc::util::render_heatmap(values, 128, 128, options);
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 18); // 16 + borders
}

class TempFile {
public:
    explicit TempFile(const std::string& name)
        : path_((std::filesystem::temp_directory_path() / name).string())
    {
        std::remove(path_.c_str());
    }
    ~TempFile() { std::remove(path_.c_str()); }
    [[nodiscard]] const std::string& path() const noexcept { return path_; }

private:
    std::string path_;
};

TEST(Journal, JsonLineRoundTrip)
{
    fptc::util::JournalRecord record;
    record.key = "table4|res=32|aug=rotate|split=0|seed=1";
    record.fields = {{"script", "98.25"}, {"note", "quote \" and \\ and\ntab\t"}};
    const auto line = fptc::util::to_json_line(record);
    const auto parsed = fptc::util::parse_json_line(line);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->key, record.key);
    EXPECT_EQ(parsed->fields, record.fields);
}

TEST(Journal, ParseRejectsTornLines)
{
    EXPECT_FALSE(fptc::util::parse_json_line("").has_value());
    EXPECT_FALSE(fptc::util::parse_json_line("{\"key\":\"a\",\"x\":\"1").has_value());
    EXPECT_FALSE(fptc::util::parse_json_line("not json at all").has_value());
    EXPECT_FALSE(fptc::util::parse_json_line("{\"x\":\"1\"}").has_value()); // no key
}

TEST(Journal, RecordsSurviveReopen)
{
    TempFile file("fptc_test_journal.jsonl");
    {
        fptc::util::RunJournal journal(file.path());
        EXPECT_EQ(journal.size(), 0u);
        journal.record("unit-a", {{"score", "1.5"}});
        journal.record("unit-b", {{"score", "2.5"}});
    }
    fptc::util::RunJournal reopened(file.path());
    EXPECT_EQ(reopened.size(), 2u);
    EXPECT_EQ(reopened.recovered_records(), 2u);
    EXPECT_TRUE(reopened.completed("unit-a"));
    EXPECT_FALSE(reopened.completed("unit-c"));
    const auto* fields = reopened.find("unit-b");
    ASSERT_NE(fields, nullptr);
    EXPECT_EQ(fields->at("score"), "2.5");
}

TEST(Journal, TornTailIsDiscarded)
{
    TempFile file("fptc_test_journal_torn.jsonl");
    {
        fptc::util::RunJournal journal(file.path());
        journal.record("unit-a", {{"score", "1"}});
    }
    {
        // Simulate a crash mid-append: a half-written final line.
        std::ofstream out(file.path(), std::ios::app);
        out << "{\"key\":\"unit-b\",\"score\":\"2";
    }
    fptc::util::RunJournal reopened(file.path());
    EXPECT_EQ(reopened.size(), 1u);
    EXPECT_EQ(reopened.discarded_lines(), 1u);
    EXPECT_FALSE(reopened.completed("unit-b"));

    // compact() rewrites the file without the torn line.
    reopened.compact();
    fptc::util::RunJournal compacted(file.path());
    EXPECT_EQ(compacted.size(), 1u);
    EXPECT_EQ(compacted.discarded_lines(), 0u);
}

TEST(Journal, LastRecordWinsOnRerecord)
{
    TempFile file("fptc_test_journal_dup.jsonl");
    {
        fptc::util::RunJournal journal(file.path());
        journal.record("unit", {{"score", "1"}});
        journal.record("unit", {{"score", "2"}});
    }
    fptc::util::RunJournal reopened(file.path());
    EXPECT_EQ(reopened.size(), 1u);
    EXPECT_EQ(reopened.find("unit")->at("score"), "2");
}

TEST(Journal, AtomicWriteFileReplacesContent)
{
    TempFile file("fptc_test_atomic.txt");
    fptc::util::DurableFile::write_file(file.path(), "first");
    fptc::util::DurableFile::write_file(file.path(), "second");
    std::ifstream in(file.path());
    std::string content((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    EXPECT_EQ(content, "second");
}

TEST(Journal, FieldDoubleRoundTripsExactly)
{
    const double value = 0.1 + 0.2; // not representable prettily
    const auto text = fptc::util::field_from_double(value);
    std::map<std::string, std::string> fields{{"v", text}};
    EXPECT_EQ(fptc::util::field_double(fields, "v"), value);
    EXPECT_THROW((void)fptc::util::field_double(fields, "missing"), std::runtime_error);
}

TEST(Journal, CampaignJournalReplaysRecordedUnits)
{
    TempFile file("fptc_test_campaign.jsonl");
    ::setenv("FPTC_JOURNAL", file.path().c_str(), 1);
    int executions = 0;
    const auto run = [&] {
        ++executions;
        return std::map<std::string, std::string>{{"score", "9"}};
    };
    {
        fptc::util::CampaignJournal journal("testbench");
        ASSERT_TRUE(journal.enabled());
        EXPECT_EQ(journal.run_or_replay("u1", run).at("score"), "9");
        EXPECT_EQ(journal.run_or_replay("u2", run).at("score"), "9");
        EXPECT_EQ(journal.executed(), 2u);
        EXPECT_EQ(journal.replayed(), 0u);
    }
    {
        // A re-launched campaign replays both units without executing.
        fptc::util::CampaignJournal journal("testbench");
        EXPECT_EQ(journal.run_or_replay("u1", run).at("score"), "9");
        EXPECT_EQ(journal.run_or_replay("u2", run).at("score"), "9");
        EXPECT_EQ(journal.replayed(), 2u);
        EXPECT_EQ(journal.executed(), 0u);
        EXPECT_NE(journal.summary().find("2 replayed"), std::string::npos);
    }
    EXPECT_EQ(executions, 2);
    {
        // Keys are namespaced per campaign: another bench re-executes.
        fptc::util::CampaignJournal journal("otherbench");
        (void)journal.run_or_replay("u1", run);
        EXPECT_EQ(journal.executed(), 1u);
    }
    ::unsetenv("FPTC_JOURNAL");
}

TEST(Journal, CampaignJournalDisabledWithoutEnv)
{
    ::unsetenv("FPTC_JOURNAL");
    fptc::util::CampaignJournal journal("testbench");
    EXPECT_FALSE(journal.enabled());
    int executions = 0;
    const auto run = [&] {
        ++executions;
        return std::map<std::string, std::string>{};
    };
    (void)journal.run_or_replay("u1", run);
    (void)journal.run_or_replay("u1", run);
    EXPECT_EQ(executions, 2); // every call executes without a journal
    EXPECT_TRUE(journal.summary().empty());
}

TEST(Fault, InertByDefault)
{
    fptc::util::FaultInjector injector;
    EXPECT_FALSE(injector.enabled());
    EXPECT_FALSE(injector.inject_nan_loss());
    EXPECT_FALSE(injector.inject_truncated_write());
    EXPECT_FALSE(injector.inject_csv_corruption());
    EXPECT_EQ(injector.counters().total(), 0u);
}

TEST(Fault, NanLossFiresEveryKthStep)
{
    fptc::util::FaultPlan plan;
    plan.nan_loss_every = 3;
    fptc::util::FaultInjector injector(plan);
    EXPECT_TRUE(injector.enabled());
    int fired = 0;
    for (int i = 0; i < 12; ++i) {
        fired += injector.inject_nan_loss() ? 1 : 0;
    }
    EXPECT_EQ(fired, 4);
    EXPECT_EQ(injector.counters().nan_losses, 4u);
}

TEST(Fault, TruncatedWritesAreFirstN)
{
    fptc::util::FaultPlan plan;
    plan.truncate_writes = 2;
    fptc::util::FaultInjector injector(plan);
    EXPECT_TRUE(injector.inject_truncated_write());
    EXPECT_TRUE(injector.inject_truncated_write());
    EXPECT_FALSE(injector.inject_truncated_write());
    EXPECT_EQ(injector.counters().truncated_writes, 2u);
}

TEST(Fault, CsvCorruptionIsDeterministicInSeed)
{
    fptc::util::FaultPlan plan;
    plan.seed = 5;
    plan.csv_row_percent = 30.0;
    fptc::util::FaultInjector a(plan);
    fptc::util::FaultInjector b(plan);
    int fired = 0;
    for (int i = 0; i < 200; ++i) {
        const bool hit = a.inject_csv_corruption();
        EXPECT_EQ(hit, b.inject_csv_corruption());
        fired += hit ? 1 : 0;
    }
    EXPECT_GT(fired, 30); // ~60 expected
    EXPECT_LT(fired, 100);
    EXPECT_EQ(a.summary(), b.summary());
}

TEST(Env, ResolveScaleDefaults)
{
    ::unsetenv("FPTC_FULL");
    ::unsetenv("FPTC_SPLITS");
    ::unsetenv("FPTC_SEEDS");
    ::unsetenv("FPTC_EPOCHS");
    const auto scale = fptc::util::resolve_scale(5, 3, 2, 1);
    EXPECT_FALSE(scale.full);
    EXPECT_EQ(scale.splits, 2);
    EXPECT_EQ(scale.seeds, 1);
    EXPECT_LE(scale.max_epochs, 12);
}

TEST(Env, ResolveScaleOverrides)
{
    ::setenv("FPTC_FULL", "1", 1);
    ::setenv("FPTC_SPLITS", "7", 1);
    const auto scale = fptc::util::resolve_scale(5, 3, 2, 1, 40);
    EXPECT_TRUE(scale.full);
    EXPECT_EQ(scale.splits, 7);
    EXPECT_EQ(scale.seeds, 3); // paper seeds under FPTC_FULL
    EXPECT_EQ(scale.max_epochs, 40);
    ::unsetenv("FPTC_FULL");
    ::unsetenv("FPTC_SPLITS");
}

/// setenv/getenv RAII so a throwing assertion cannot leak the knob into
/// later tests.
class KnobGuard {
public:
    KnobGuard(const char* name, const char* value) : name_(name)
    {
        ::setenv(name, value, 1);
    }
    ~KnobGuard() { ::unsetenv(name_); }

private:
    const char* name_;
};

TEST(Env, IntKnobParsesStrictly)
{
    {
        KnobGuard knob("FPTC_TEST_KNOB", "42");
        EXPECT_EQ(fptc::util::env_int("FPTC_TEST_KNOB").value_or(-1), 42);
    }
    EXPECT_FALSE(fptc::util::env_int("FPTC_TEST_KNOB").has_value());  // unset
    {
        KnobGuard knob("FPTC_TEST_KNOB", "");
        EXPECT_FALSE(fptc::util::env_int("FPTC_TEST_KNOB").has_value());  // empty
    }
    {
        KnobGuard knob("FPTC_TEST_KNOB", "0");
        EXPECT_EQ(fptc::util::env_int("FPTC_TEST_KNOB").value_or(-1), 0);
    }
}

TEST(Env, IntKnobRejectsGarbageWithNameAndValue)
{
    KnobGuard knob("FPTC_TEST_KNOB", "fast");
    try {
        (void)fptc::util::env_int("FPTC_TEST_KNOB");
        FAIL() << "non-numeric knob must throw";
    } catch (const fptc::util::EnvError& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("FPTC_TEST_KNOB"), std::string::npos);
        EXPECT_NE(what.find("fast"), std::string::npos);
    }
}

TEST(Env, IntKnobRejectsTrailingGarbage)
{
    KnobGuard knob("FPTC_TEST_KNOB", "12abc");
    EXPECT_THROW((void)fptc::util::env_int("FPTC_TEST_KNOB"), fptc::util::EnvError);
}

TEST(Env, IntKnobRejectsNegative)
{
    KnobGuard knob("FPTC_TEST_KNOB", "-3");
    EXPECT_THROW((void)fptc::util::env_int("FPTC_TEST_KNOB"), fptc::util::EnvError);
}

TEST(Env, IntKnobRejectsOverflow)
{
    KnobGuard knob("FPTC_TEST_KNOB", "99999999999999999999");
    EXPECT_THROW((void)fptc::util::env_int("FPTC_TEST_KNOB"), fptc::util::EnvError);
}

TEST(Env, DoubleKnobParsesStrictly)
{
    KnobGuard knob("FPTC_TEST_KNOB", "0.25");
    EXPECT_DOUBLE_EQ(fptc::util::env_double("FPTC_TEST_KNOB").value_or(-1.0), 0.25);
}

TEST(Env, DoubleKnobRejectsGarbage)
{
    KnobGuard knob("FPTC_TEST_KNOB", "half");
    EXPECT_THROW((void)fptc::util::env_double("FPTC_TEST_KNOB"), fptc::util::EnvError);
}

TEST(Env, DoubleKnobRejectsTrailingGarbage)
{
    KnobGuard knob("FPTC_TEST_KNOB", "1.5x");
    EXPECT_THROW((void)fptc::util::env_double("FPTC_TEST_KNOB"), fptc::util::EnvError);
}

TEST(Env, DoubleKnobRejectsNegative)
{
    KnobGuard knob("FPTC_TEST_KNOB", "-0.1");
    EXPECT_THROW((void)fptc::util::env_double("FPTC_TEST_KNOB"), fptc::util::EnvError);
}

TEST(Env, DoubleKnobRejectsOverflowAndNonFinite)
{
    {
        KnobGuard knob("FPTC_TEST_KNOB", "1e999");
        EXPECT_THROW((void)fptc::util::env_double("FPTC_TEST_KNOB"), fptc::util::EnvError);
    }
    {
        KnobGuard knob("FPTC_TEST_KNOB", "inf");
        EXPECT_THROW((void)fptc::util::env_double("FPTC_TEST_KNOB"), fptc::util::EnvError);
    }
    {
        KnobGuard knob("FPTC_TEST_KNOB", "nan");
        EXPECT_THROW((void)fptc::util::env_double("FPTC_TEST_KNOB"), fptc::util::EnvError);
    }
}

} // namespace
