/**
 * @file
 * Unit tests for the support library: RNG, statistics, tables, math
 * helpers, logging levels, JSON, and the metrics registry.
 */
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "support/json.hh"
#include "support/logging.hh"
#include "support/math_util.hh"
#include "support/metrics.hh"
#include "support/rng.hh"
#include "support/stats.hh"
#include "support/table.hh"

using namespace dysel::support;

TEST(Rng, DeterministicForEqualSeeds)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += a.next() == b.next();
    EXPECT_LT(equal, 5);
}

TEST(Rng, NextBelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.nextBelow(17), 17u);
}

TEST(Rng, NextBelowCoversRange)
{
    Rng r(9);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 8000; ++i)
        ++seen[r.nextBelow(8)];
    for (int bucket : seen) {
        EXPECT_GT(bucket, 700);
        EXPECT_LT(bucket, 1300);
    }
}

TEST(Rng, NextInRangeInclusive)
{
    Rng r(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const auto v = r.nextInRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoublesInUnitInterval)
{
    Rng r(13);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double v = r.nextDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliProbability)
{
    Rng r(17);
    int heads = 0;
    for (int i = 0; i < 10000; ++i)
        heads += r.nextBool(0.3);
    EXPECT_NEAR(heads / 10000.0, 0.3, 0.03);
}

TEST(Summary, Empty)
{
    Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Summary, BasicMoments)
{
    Summary s;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        s.add(v);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_NEAR(s.variance(), 1.25, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(Stats, GeoMean)
{
    EXPECT_DOUBLE_EQ(geoMean({}), 0.0);
    EXPECT_NEAR(geoMean({4.0}), 4.0, 1e-12);
    EXPECT_NEAR(geoMean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geoMean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Stats, Median)
{
    EXPECT_DOUBLE_EQ(median({}), 0.0);
    EXPECT_DOUBLE_EQ(median({3.0}), 3.0);
    EXPECT_DOUBLE_EQ(median({3.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({5.0, 1.0, 3.0}), 3.0);
}

TEST(MathUtil, CeilDivAndRoundUp)
{
    EXPECT_EQ(ceilDiv(0, 4), 0u);
    EXPECT_EQ(ceilDiv(1, 4), 1u);
    EXPECT_EQ(ceilDiv(4, 4), 1u);
    EXPECT_EQ(ceilDiv(5, 4), 2u);
    EXPECT_EQ(roundUp(5, 4), 8u);
    EXPECT_EQ(roundUp(8, 4), 8u);
}

TEST(MathUtil, LcmAll)
{
    EXPECT_EQ(lcmAll({1}), 1u);
    EXPECT_EQ(lcmAll({2, 3}), 6u);
    EXPECT_EQ(lcmAll({4, 6, 8}), 24u);
    EXPECT_EQ(lcmAll({1, 16, 64, 128}), 128u);
}

TEST(MathUtil, PowersOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(64));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(48));
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(64), 6u);
    EXPECT_EQ(floorLog2(65), 6u);
}

TEST(Table, AlignedOutput)
{
    Table t({"name", "value"});
    t.row().cell("a").cell(1.5, 1);
    t.row().cell("longer").cell(std::uint64_t{42});
    EXPECT_EQ(t.rowCount(), 2u);
    std::ostringstream os;
    t.print(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("longer"), std::string::npos);
    EXPECT_NE(s.find("1.5"), std::string::npos);
    EXPECT_NE(s.find("42"), std::string::npos);
}

TEST(Table, CsvOutput)
{
    Table t({"a", "b"});
    t.row().cell("x").cell(std::uint64_t{7});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\nx,7\n");
}

TEST(Logging, ThresholdControlsOutput)
{
    const LogLevel before = logThreshold();
    {
        LogSilencer silence(LogLevel::Panic);
        EXPECT_EQ(logThreshold(), LogLevel::Panic);
        warn("this warning must be suppressed by the silencer");
    }
    EXPECT_EQ(logThreshold(), before);
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH(panic("intentional test panic"), "");
}

TEST(Json, ParseDumpRoundTrip)
{
    const std::string text = R"({"a":[1,2.5,-3],"b":{"c":true,)"
                             R"("d":null,"e":"hi\n\"there\""}})";
    Json v = Json::parse(text);
    EXPECT_EQ(v.at("a").items().size(), 3u);
    EXPECT_EQ(v.at("a").items()[0].asInt(), 1);
    EXPECT_DOUBLE_EQ(v.at("a").items()[1].asNumber(), 2.5);
    EXPECT_EQ(v.at("a").items()[2].asInt(), -3);
    EXPECT_TRUE(v.at("b").at("c").asBool());
    EXPECT_TRUE(v.at("b").at("d").isNull());
    EXPECT_EQ(v.at("b").at("e").asString(), "hi\n\"there\"");

    // dump -> parse is the identity.
    Json again = Json::parse(v.dump());
    EXPECT_EQ(again.dump(), v.dump());
    Json pretty = Json::parse(v.dump(2));
    EXPECT_EQ(pretty.dump(), v.dump());
}

TEST(Json, BuildersAndDefaults)
{
    Json obj = Json::object();
    obj.set("n", Json(std::uint64_t{1234567890123ull}));
    obj.set("s", Json("x"));
    Json arr = Json::array();
    arr.push(Json(1));
    obj.set("a", std::move(arr));
    EXPECT_EQ(obj.at("n").asUint(), 1234567890123ull);
    EXPECT_EQ(obj.numberOr("missing", 7.0), 7.0);
    EXPECT_EQ(obj.stringOr("s", ""), "x");
    EXPECT_FALSE(obj.has("missing"));
    EXPECT_TRUE(obj.boolOr("missing", true));
}

TEST(Json, ParseErrorsCarryOffsets)
{
    EXPECT_THROW(Json::parse(""), std::runtime_error);
    EXPECT_THROW(Json::parse("{\"a\":}"), std::runtime_error);
    EXPECT_THROW(Json::parse("[1,2"), std::runtime_error);
    EXPECT_THROW(Json::parse("[1] trailing"), std::runtime_error);
    try {
        Json::parse("{\"a\": nope}");
        FAIL() << "expected a parse error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("offset"),
                  std::string::npos);
    }
}

TEST(Json, NestingAtTheCapParses)
{
    const int cap = Json::kMaxParseDepth;
    EXPECT_TRUE(Json::parse(std::string(cap, '[') + std::string(cap, ']'))
                    .isArray());
    std::string objects;
    for (int i = 0; i < cap - 1; ++i)
        objects += "{\"k\":";
    objects += "[1]" + std::string(cap - 1, '}');
    EXPECT_TRUE(Json::parse(objects).isObject());
}

TEST(Json, NestingPastTheCapFailsAtItsOffset)
{
    const int cap = Json::kMaxParseDepth;
    std::string objects;
    for (int i = 0; i < 100000; ++i)
        objects += "{\"k\":";
    const struct
    {
        std::string text;
        std::size_t offset;   ///< where the (cap + 1)-th level opens
    } cases[] = {
        {std::string(cap + 1, '[') + std::string(cap + 1, ']'),
         std::size_t(cap)},
        {std::string(100000, '['), std::size_t(cap)},
        {objects, std::size_t(cap) * 5},
    };
    for (const auto &c : cases) {
        try {
            Json::parse(c.text);
            FAIL() << "expected a parse error for " << c.text.size()
                   << " bytes";
        } catch (const std::runtime_error &e) {
            EXPECT_EQ(std::string(e.what()),
                      "json: nesting too deep at offset "
                          + std::to_string(c.offset));
        }
    }
}

TEST(Metrics, CountersAccumulateAcrossThreads)
{
    MetricsRegistry reg;
    Counter &c = reg.counter("jobs");
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&c] {
            for (int i = 0; i < 1000; ++i)
                c.inc();
        });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(reg.counterValue("jobs"), 4000u);
    EXPECT_EQ(reg.counterValue("absent"), 0u);
    // counter() returns the same instance for the same name.
    EXPECT_EQ(&reg.counter("jobs"), &c);
}

TEST(Metrics, HistogramStatistics)
{
    Histogram h;
    for (double v : {1.0, 2.0, 4.0, 8.0, 1024.0})
        h.observe(v);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_DOUBLE_EQ(h.sum(), 1039.0);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 1024.0);
    EXPECT_NEAR(h.mean(), 1039.0 / 5.0, 1e-9);
    // p50 lands in the bucket holding the 3rd sample (4.0 -> [4,8)).
    EXPECT_GE(h.quantile(0.5), 4.0);
    EXPECT_LE(h.quantile(0.5), 8.0);
    EXPECT_GE(h.quantile(1.0), 1024.0);
}

TEST(Metrics, RenderTextAndJson)
{
    MetricsRegistry reg;
    reg.counter("store.hit").inc(3);
    reg.histogram("lat").observe(10.0);
    const std::string text = reg.renderText();
    EXPECT_NE(text.find("store.hit 3"), std::string::npos);
    EXPECT_NE(text.find("lat{"), std::string::npos);
    const Json json = reg.renderJson();
    EXPECT_EQ(json.at("counters").at("store.hit").asUint(), 3u);
    EXPECT_EQ(json.at("histograms").at("lat").at("count").asUint(), 1u);
}
