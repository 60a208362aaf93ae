/**
 * @file
 * Async ingest: four producer threads stream word-frequency updates
 * into a sharded counting fabric through service::IngestService.
 *
 * Producers never touch the fabric: they submit point updates into
 * per-shard bounded queues and move on. The service's drainer cuts
 * deterministic epochs, coalesces duplicate counters (hot words cost
 * one fabric update per epoch, not one per occurrence), and executes
 * per-shard buckets on whichever pool lane is free. A snapshot read
 * at the end is epoch-consistent and bit-identical to feeding the
 * same stream through one blocking engine.
 */

#include <cstdio>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/sharded.hpp"
#include "service/ingest.hpp"

using namespace c2m;

int
main()
{
    // A "vocabulary" of 1024 word ids, Zipf-skewed like real text.
    constexpr size_t kVocab = 1024;
    constexpr size_t kOpsPerProducer = 512;
    constexpr unsigned kProducers = 4;

    core::EngineConfig cfg;
    cfg.radix = 4;
    cfg.capacityBits = 16;
    cfg.numCounters = kVocab;
    cfg.maxMaskRows = 1;
    core::ShardedEngine engine(cfg, /*num_shards=*/4);

    service::IngestConfig icfg;
    icfg.minDrainOps = 256; // coalescing window
    service::IngestService service(engine, icfg);

    std::vector<std::thread> producers;
    for (unsigned p = 0; p < kProducers; ++p)
        producers.emplace_back([&service, p] {
            ZipfRng words(kVocab, 1.0, 1000 + p);
            for (size_t i = 0; i < kOpsPerProducer; ++i)
                service.submit(core::BatchOp{words.next(), 1, 0});
        });
    for (auto &t : producers)
        t.join();

    // Epoch-consistent snapshot: drains everything submitted above.
    const auto snap = service.snapshot();
    int64_t total = 0;
    uint64_t top_word = 0;
    for (size_t w = 0; w < kVocab; ++w) {
        total += snap.counters[w];
        if (snap.counters[w] > snap.counters[top_word])
            top_word = w;
    }
    std::printf("counted %ld occurrences across %zu words "
                "(epoch %lu); hottest word %lu seen %ld times\n",
                long(total), kVocab, (unsigned long)snap.epoch,
                (unsigned long)top_word, long(snap.counters[top_word]));

    // The merged service + engine report: how many ops the queues
    // absorbed vs. how few accumulates reached the fabric.
    std::printf("%s", renderCounters(service.report()).c_str());
    return total == kProducers * kOpsPerProducer ? 0 : 1;
}
