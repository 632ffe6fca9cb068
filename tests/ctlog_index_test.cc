// Tests for the persistent secondary index: the shared matcher core
// (satellite of DESIGN.md section 12 — one predicate for scan AND
// index), the unicert-index-v1 artifact framing with its decode-error
// taxonomy, generation build/publish/load round trips, epoch
// allocation, pruning, and the fsck damage classification.
#include "ctlog/index/index.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "asn1/time.h"
#include "core/fs.h"
#include "crypto/simsig.h"
#include "ctlog/index/matcher.h"
#include "x509/builder.h"

namespace unicert::ctlog::index {
namespace {

namespace oids = asn1::oids;

x509::Certificate cert_with_cn_san(const std::string& cn, const std::string& san) {
    x509::Certificate cert;
    cert.version = 2;
    cert.serial = {0x07};
    cert.subject = x509::make_dn({
        x509::make_attribute(oids::common_name(), cn),
        x509::make_attribute(oids::organization_name(), "Index Test Org"),
    });
    cert.issuer = cert.subject;
    cert.validity = {asn1::make_time(2024, 1, 1), asn1::make_time(2024, 4, 1)};
    if (!san.empty()) cert.extensions.push_back(x509::make_san({x509::dns_name(san)}));
    return cert;
}

Bytes der_for(const std::string& cn, const std::string& san) {
    x509::Certificate cert = cert_with_cn_san(cn, san);
    crypto::SimSigner signer = crypto::SimSigner::from_name("index-test-ca");
    return x509::sign_certificate(cert, signer);
}

const MonitorProfile& profile(std::string_view name) {
    for (const MonitorProfile& p : monitor_profiles()) {
        if (p.name == name) return p;
    }
    ADD_FAILURE() << "no profile " << name;
    return monitor_profiles()[0];
}

// Store with `hosts` as CN+SAN entries, opened over `fs` at `dir`.
std::unique_ptr<store::Store> make_store(core::Fs& fs, const std::string& dir,
                                         const std::vector<std::string>& hosts) {
    store::StoreOptions options;
    options.create_if_missing = true;
    auto store = store::Store::open(fs, dir, options);
    EXPECT_TRUE(store.ok());
    std::vector<store::PendingEntry> batch;
    for (size_t i = 0; i < hosts.size(); ++i) {
        store::PendingEntry entry;
        entry.leaf_der = der_for(hosts[i], hosts[i]);
        entry.timestamp = static_cast<int64_t>(i);
        batch.push_back(std::move(entry));
    }
    if (!batch.empty()) {
        EXPECT_TRUE((*store)->append_batch(batch).ok());
    }
    return std::move(*store);
}

// ---- matcher ---------------------------------------------------------------

TEST(Matcher, FoldIsAsciiOnly) {
    EXPECT_EQ(ascii_fold("Example.COM"), "example.com");
    // Non-ASCII bytes pass through untouched (no Unicode case mapping).
    EXPECT_EQ(ascii_fold("M\xC3\x9CNCHEN"), "m\xC3\x9Cnchen");
    MonitorCapabilities caps;
    caps.case_insensitive = false;
    EXPECT_EQ(fold(caps, "MiXeD"), "MiXeD");
    caps.case_insensitive = true;
    EXPECT_EQ(fold(caps, "MiXeD"), "mixed");
}

TEST(Matcher, ExactVersusFuzzyPredicate) {
    MonitorCapabilities exact;
    exact.fuzzy_search = false;
    EXPECT_TRUE(key_matches(exact, "host.example", "host.example"));
    EXPECT_FALSE(key_matches(exact, "host.example", "host"));
    MonitorCapabilities fuzzy;
    fuzzy.fuzzy_search = true;
    EXPECT_TRUE(key_matches(fuzzy, "host.example", "host"));
    EXPECT_TRUE(key_matches(fuzzy, "host.example", ""));
    EXPECT_FALSE(key_matches(fuzzy, "host.example", "absent"));
}

TEST(Matcher, HiddenOnlyWhenEveryKeyIsSuppressed) {
    // P1.4: a profile that drops special-Unicode names hides the record
    // only when NOTHING searchable remains; a clean SAN keeps it alive.
    const MonitorProfile& sslmate = profile("SSLMate Spotter");
    ASSERT_FALSE(sslmate.caps.returns_special_unicode);

    x509::Certificate all_special = cert_with_cn_san("victim\xE2\x80\x8B.com", "");
    DerivedRecord hidden = derive_record(sslmate.caps, all_special);
    EXPECT_TRUE(hidden.hidden);
    EXPECT_TRUE(hidden.keys.empty());
    // The class mask still records where the special Unicode lives.
    EXPECT_TRUE(hidden.class_mask & kFieldCn);

    x509::Certificate partial = cert_with_cn_san("victim\xE2\x80\x8B.com", "clean.example");
    DerivedRecord survives = derive_record(sslmate.caps, partial);
    EXPECT_FALSE(survives.hidden);
    ASSERT_EQ(survives.keys.size(), 1u);
    EXPECT_EQ(survives.keys[0], "clean.example");
}

TEST(Matcher, ValidateQueryRefusesRawUnicode) {
    for (const MonitorProfile& p : monitor_profiles()) {
        auto rejection = validate_query(p.caps, "m\xC3\xBCnchen.example");
        ASSERT_TRUE(rejection.has_value()) << p.name;
        EXPECT_FALSE(rejection->reason.empty());
        EXPECT_FALSE(validate_query(p.caps, "plain.example").has_value()) << p.name;
    }
    // Entrust refuses punycode ccTLDs; crt.sh accepts them.
    EXPECT_TRUE(validate_query(profile("Entrust Search").caps, "site.xn--fiq228c"));
    EXPECT_FALSE(validate_query(profile("Crt.sh").caps, "site.xn--fiq228c"));
}

// ---- format ----------------------------------------------------------------

IndexGeneration sample_generation() {
    IndexGeneration generation;
    generation.epoch = 9;
    generation.basis_size = 3;
    generation.basis_root.fill(0xAB);
    ProfileIndex profile;
    profile.profile_name = "Crt.sh";
    profile.records.push_back({{"alpha.example", "alt.alpha.example"}, false, false,
                               0, kFieldCn | kFieldSan});
    profile.records.push_back({{}, true, false, kFieldCn, 0});
    profile.records.push_back({{}, false, true, 0, 0});
    generation.profiles.push_back(std::move(profile));
    return generation;
}

TEST(Format, EncodeDecodeRoundTrip) {
    IndexGeneration original = sample_generation();
    Bytes blob = encode_index(original);
    auto decoded = decode_index(BytesView(blob.data(), blob.size()));
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    EXPECT_EQ(decoded->epoch, 9u);
    EXPECT_EQ(decoded->basis_size, 3u);
    EXPECT_EQ(decoded->basis_root, original.basis_root);
    ASSERT_EQ(decoded->profiles.size(), 1u);
    const ProfileIndex& p = decoded->profiles[0];
    EXPECT_EQ(p.profile_name, "Crt.sh");
    ASSERT_EQ(p.records.size(), 3u);
    EXPECT_EQ(p.records[0].keys, original.profiles[0].records[0].keys);
    EXPECT_TRUE(p.records[1].hidden);
    EXPECT_EQ(p.records[1].class_mask, kFieldCn);
    EXPECT_TRUE(p.records[2].excluded);
}

TEST(Format, DecodeErrorTaxonomy) {
    Bytes blob = encode_index(sample_generation());

    // Torn tail: any truncation fails, classified as index_truncated.
    for (size_t keep : {size_t{4}, blob.size() / 2, blob.size() - 1}) {
        auto torn = decode_index(BytesView(blob.data(), keep));
        ASSERT_FALSE(torn.ok());
        EXPECT_EQ(torn.error().code, "index_truncated") << "keep=" << keep;
    }

    // Bad magic.
    Bytes magic = blob;
    magic[0] ^= 0xFF;
    EXPECT_EQ(decode_index(BytesView(magic.data(), magic.size())).error().code,
              "index_bad_magic");

    // Single bit flip anywhere under the checksum is caught.
    Bytes rot = blob;
    rot[blob.size() / 2] ^= 0x01;
    EXPECT_EQ(decode_index(BytesView(rot.data(), rot.size())).error().code, "index_checksum");

    // Trailing garbage breaks the framing length.
    Bytes longer = blob;
    longer.push_back(0x00);
    EXPECT_EQ(decode_index(BytesView(longer.data(), longer.size())).error().code,
              "index_bad_length");

    // Valid checksum but broken grammar: record_count != basis_size.
    IndexGeneration inconsistent = sample_generation();
    inconsistent.profiles[0].records.push_back(IndexedRecord{});
    Bytes bad = encode_index(inconsistent);
    EXPECT_EQ(decode_index(BytesView(bad.data(), bad.size())).error().code,
              "index_bad_payload");
}

TEST(Format, FileNameRoundTrip) {
    EXPECT_EQ(index_file_name(0x1F), "idx-000000000000001f.idx");
    EXPECT_EQ(parse_index_file_name("idx-000000000000001f.idx"), 0x1Fu);
    EXPECT_FALSE(parse_index_file_name("idx-001f.idx").has_value());
    EXPECT_FALSE(parse_index_file_name("seg-000000000000001f.idx").has_value());
    EXPECT_FALSE(parse_index_file_name("idx-000000000000001f.idx.tmp").has_value());
}

TEST(Format, FinalizeBuildsAcceleration) {
    // add() posts only what lookup reads under the section's caps.
    IndexGeneration generation = sample_generation();
    const RecordList& records = generation.profiles[0].records;
    ProfileIndex exact_only("SSLMate Spotter", profile("SSLMate Spotter").caps);
    for (const IndexedRecord& record : records) exact_only.add(record);
    EXPECT_EQ(exact_only.caps, profile("SSLMate Spotter").caps);
    EXPECT_EQ(exact_only.records.size(), records.size());
    // Hidden and excluded records are not searchable.
    ASSERT_EQ(exact_only.exact.size(), 2u);
    auto alpha = exact_only.exact.find(exact_key_hash("alpha.example"));
    EXPECT_EQ(std::vector<uint32_t>(alpha.begin(), alpha.end()), (std::vector<uint32_t>{0}));
    EXPECT_TRUE(exact_only.trigrams.empty());
    EXPECT_TRUE(exact_only.searchable_ids.empty());

    ProfileIndex fuzzy("Crt.sh", profile("Crt.sh").caps);
    for (const IndexedRecord& record : records) fuzzy.add(record);
    EXPECT_EQ(fuzzy.caps, profile("Crt.sh").caps);
    EXPECT_EQ(fuzzy.searchable_ids, (std::vector<uint32_t>{0}));
    EXPECT_FALSE(fuzzy.trigrams.empty());
    EXPECT_TRUE(fuzzy.exact.empty());

    // class_postings reflect class_mask even for hidden records.
    for (const ProfileIndex* p : {&exact_only, &fuzzy}) {
        EXPECT_EQ(p->class_postings[0], (std::vector<uint32_t>{1}));  // bit 0 = kFieldCn
    }
}

TEST(Format, PostingsGrowAndCopyWithoutLosingIds) {
    // Enough keys to grow the table several times, lists long enough to
    // move in the pool, and adds on both sides of a copy.
    auto ids_for = [](uint64_t key, uint32_t below) {
        std::vector<uint32_t> ids;
        for (uint32_t id = 0; id < below; ++id) {
            if (id % (1 + key % 7) == 0) ids.push_back(id);
        }
        return ids;
    };
    auto as_vector = [](std::span<const uint32_t> ids) {
        return std::vector<uint32_t>(ids.begin(), ids.end());
    };
    Postings postings;
    for (uint32_t id = 0; id < 40; ++id) {
        for (uint64_t key = 0; key < 300; ++key) {
            if (id % (1 + key % 7) == 0) {
                postings.add(key * 0x10001, id);
                postings.add(key * 0x10001, id);  // a repeat is not posted twice
            }
        }
    }
    Postings copy = postings;
    for (uint64_t key = 0; key < 300; ++key) {
        if (40 % (1 + key % 7) == 0) copy.add(key * 0x10001, 40);
    }
    EXPECT_EQ(postings.size(), 300u);
    EXPECT_EQ(copy.size(), 300u);
    for (uint64_t key = 0; key < 300; ++key) {
        EXPECT_EQ(as_vector(postings.find(key * 0x10001)), ids_for(key, 40)) << key;
        EXPECT_EQ(as_vector(copy.find(key * 0x10001)), ids_for(key, 41)) << key;
    }
    EXPECT_TRUE(postings.find(7).empty());
    EXPECT_TRUE(Postings().find(7).empty());
}

TEST(Format, RecordListCopiesShareSealedChunks) {
    // A copy shares every sealed chunk and owns a copy of the open one:
    // appends on either side never show through the other.
    auto record_for = [](size_t i) {
        IndexedRecord record;
        record.keys = {"host-" + std::to_string(i)};
        return record;
    };
    const size_t first = 2 * RecordList::kChunkRecords + 76;
    RecordList original;
    for (size_t i = 0; i < first; ++i) original.push_back(record_for(i));
    RecordList copy = original;
    for (size_t i = first; i < first + RecordList::kChunkRecords; ++i) {
        copy.push_back(record_for(i));
        original.push_back(record_for(i + 100000));
    }
    ASSERT_EQ(copy.size(), first + RecordList::kChunkRecords);
    ASSERT_EQ(original.size(), copy.size());
    for (size_t i = 0; i < copy.size(); ++i) {
        EXPECT_EQ(copy[i].keys.front(), "host-" + std::to_string(i)) << i;
        EXPECT_EQ(original[i].keys.front(), "host-" + std::to_string(i < first ? i : i + 100000))
            << i;
    }
    // Sealed records are the same objects; the open chunk was copied.
    EXPECT_EQ(&copy[0], &original[0]);
    EXPECT_EQ(&copy[2 * RecordList::kChunkRecords - 1], &original[2 * RecordList::kChunkRecords - 1]);
    EXPECT_NE(&copy[first - 1], &original[first - 1]);
    size_t visited = 0;
    for (const IndexedRecord& record : copy) {
        EXPECT_EQ(record.keys.front(), "host-" + std::to_string(visited));
        ++visited;
    }
    EXPECT_EQ(visited, copy.size());
}

TEST(Format, AddedOneAtATimeAnswersLikeABatchBuild) {
    // Records added one at a time, with lookups between the adds,
    // answer every needle exactly as a section built from the whole
    // batch at once: the postings are current after each add().
    core::MemFs fs;
    std::vector<std::string> hosts = {"alpha.example", "Beta.Example", "alpha.beta.example",
                                      "victim\xE2\x80\x8B.com", "xn--mnchen-3ya.example"};
    auto store = make_store(fs, "store", hosts);
    IndexGeneration batch = build_index(*store, 1);
    const std::vector<std::string> needles = {"alpha.example", "beta.example", "alpha", "a",
                                              "", "example", "xn--mnchen-3ya.example", "zzz"};
    for (const MonitorProfile& builtin : monitor_profiles()) {
        const ProfileIndex* built = batch.find_profile(builtin.name);
        ASSERT_NE(built, nullptr);
        ProfileIndex grown(builtin.name, builtin.caps);
        for (const IndexedRecord& record : built->records) {
            grown.add(record);
            // A batch build over the same prefix.
            ProfileIndex prefix(builtin.name, builtin.caps);
            for (size_t i = 0; i < grown.records.size(); ++i) prefix.add(built->records[i]);
            for (const std::string& needle : needles) {
                std::string folded = fold(builtin.caps, needle);
                EXPECT_EQ(lookup(grown, builtin.caps, folded),
                          lookup(prefix, builtin.caps, folded))
                    << builtin.name << " after " << grown.records.size() << " q='" << needle
                    << "'";
            }
            EXPECT_EQ(grown.class_postings, prefix.class_postings) << builtin.name;
        }
        for (const std::string& needle : needles) {
            std::string folded = fold(builtin.caps, needle);
            EXPECT_EQ(lookup(grown, builtin.caps, folded), lookup(*built, builtin.caps, folded))
                << builtin.name << " q='" << needle << "'";
        }
        EXPECT_EQ(grown.searchable_ids, built->searchable_ids) << builtin.name;
    }
}

// ---- generation lifecycle --------------------------------------------------

TEST(Generations, BuildPublishLoadRoundTrip) {
    core::MemFs fs;
    auto store = make_store(fs, "store", {"a.example", "b.example", "C.EXAMPLE"});

    IndexGeneration built = build_index(*store, next_epoch(fs, store->dir()));
    EXPECT_EQ(built.epoch, 1u);
    EXPECT_EQ(built.basis_size, 3u);
    ASSERT_TRUE(publish_index(fs, store->dir(), built).ok());

    IndexFsckReport report;
    auto loaded = load_latest(fs, *store, &report);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->epoch, 1u);
    EXPECT_TRUE(report.fresh);
    EXPECT_TRUE(report.damage.empty());
    EXPECT_TRUE(generation_valid_for(*store, *loaded));

    // All five profiles present and sized to the store.
    EXPECT_EQ(loaded->profiles.size(), monitor_profiles().size());
    for (const auto& p : loaded->profiles) {
        EXPECT_EQ(p.records.size(), 3u);
    }
    // Each section posts for its built-in profile's caps: an
    // exact-only profile holds the exact table, a fuzzy one the trigrams.
    for (const MonitorProfile& builtin : monitor_profiles()) {
        const ProfileIndex* section = loaded->find_profile(builtin.name);
        ASSERT_NE(section, nullptr) << builtin.name;
        EXPECT_EQ(section->caps, builtin.caps) << builtin.name;
    }
    const ProfileIndex* facebook = loaded->find_profile("Facebook Monitor");
    EXPECT_TRUE(facebook->trigrams.empty());
    // Keys are case-folded at derivation, and each is posted under
    // its record's id.
    EXPECT_FALSE(facebook->exact.empty());
    for (uint32_t id = 0; id < facebook->records.size(); ++id) {
        for (const std::string& key : facebook->records[id].keys) {
            EXPECT_EQ(key, ascii_fold(key));
            auto ids = facebook->exact.find(exact_key_hash(key));
            EXPECT_TRUE(std::find(ids.begin(), ids.end(), id) != ids.end()) << key;
        }
    }
    const ProfileIndex* crtsh = loaded->find_profile("Crt.sh");
    EXPECT_TRUE(crtsh->exact.empty());
    EXPECT_FALSE(crtsh->trigrams.empty());
    for (const IndexedRecord& record : crtsh->records) {
        for (const std::string& key : record.keys) EXPECT_EQ(key, ascii_fold(key));
    }
}

TEST(Generations, NextEpochSkipsDamagedNames) {
    core::MemFs fs;
    auto store = make_store(fs, "store", {"a.example"});
    ASSERT_TRUE(publish_index(fs, store->dir(), build_index(*store, 5)).ok());
    // Even though epoch 5 will never decode (we corrupt it), its name
    // still reserves the epoch so a rebuild cannot collide with it.
    EXPECT_TRUE(fs.flip_bit(index_dir(store->dir()) + "/" + index_file_name(5), 20));
    EXPECT_EQ(next_epoch(fs, store->dir()), 6u);
}

TEST(Generations, PublishPrunesOldGenerations) {
    core::MemFs fs;
    auto store = make_store(fs, "store", {"a.example"});
    for (uint64_t epoch = 1; epoch <= 4; ++epoch) {
        ASSERT_TRUE(publish_index(fs, store->dir(), build_index(*store, epoch), 2).ok());
    }
    auto names = fs.list_dir(index_dir(store->dir()));
    ASSERT_TRUE(names.ok());
    EXPECT_EQ(names->size(), 2u);
    EXPECT_EQ((*names)[0], index_file_name(3));
    EXPECT_EQ((*names)[1], index_file_name(4));
}

TEST(Fsck, ClassifiesEveryDamageKind) {
    core::MemFs fs;
    auto store = make_store(fs, "store", {"a.example", "b.example"});
    std::string dir = index_dir(store->dir());

    // Two valid generations: the older must be reported superseded.
    ASSERT_TRUE(publish_index(fs, store->dir(), build_index(*store, 1), 10).ok());
    ASSERT_TRUE(publish_index(fs, store->dir(), build_index(*store, 2), 10).ok());

    // Torn file: truncate epoch 3.
    Bytes blob = encode_index(build_index(*store, 3));
    ASSERT_TRUE(core::atomic_write_file(
                    fs, dir + "/" + index_file_name(3),
                    BytesView(blob.data(), blob.size() / 2), dir)
                    .ok());

    // Bit rot: epoch 4 decodes as index_checksum.
    Bytes rotted = encode_index(build_index(*store, 4));
    ASSERT_TRUE(core::atomic_write_file(fs, dir + "/" + index_file_name(4),
                                        BytesView(rotted.data(), rotted.size()), dir)
                    .ok());
    ASSERT_TRUE(fs.flip_bit(dir + "/" + index_file_name(4), rotted.size() / 2, 3));

    // Bad magic: epoch 5 is not an index artifact at all.
    ASSERT_TRUE(core::atomic_write_file(fs, dir + "/" + index_file_name(5),
                                        std::string_view("not an index artifact at all......."),
                                        dir)
                    .ok());

    // Stale basis: an index derived from a DIFFERENT store's history.
    auto foreign = make_store(fs, "foreign", {"x.example", "y.example"});
    Bytes alien = encode_index(build_index(*foreign, 6));
    ASSERT_TRUE(core::atomic_write_file(fs, dir + "/" + index_file_name(6),
                                        BytesView(alien.data(), alien.size()), dir)
                    .ok());

    // Stray tmp from an interrupted publish.
    ASSERT_TRUE(core::atomic_write_file(fs, dir + "/stray", std::string_view("x"), dir).ok());
    ASSERT_TRUE(fs.rename(dir + "/stray", dir + "/" + index_file_name(7) + ".tmp").ok());

    IndexFsckReport report = fsck_index(fs, *store);
    EXPECT_EQ(report.valid_epoch, 2u);
    EXPECT_TRUE(report.fresh);

    auto kind_of = [&](const std::string& file) {
        for (const IndexDamage& d : report.damage) {
            if (d.file == file) return std::string(index_damage_name(d.kind));
        }
        return std::string("MISSING");
    };
    EXPECT_EQ(kind_of(index_file_name(1)), "superseded");
    EXPECT_EQ(kind_of(index_file_name(3)), "torn-file");
    EXPECT_EQ(kind_of(index_file_name(4)), "bad-checksum");
    EXPECT_EQ(kind_of(index_file_name(5)), "bad-magic");
    EXPECT_EQ(kind_of(index_file_name(6)), "stale-basis");
    EXPECT_EQ(kind_of(index_file_name(7) + ".tmp"), "stray-tmp");

    // load_latest still serves epoch 2 through all that damage.
    auto loaded = load_latest(fs, *store);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->epoch, 2u);
}

TEST(Fsck, StaleButOnHistoryGenerationStaysValid) {
    core::MemFs fs;
    auto store = make_store(fs, "store", {"a.example", "b.example"});
    ASSERT_TRUE(publish_index(fs, store->dir(), build_index(*store, 1)).ok());

    // Appending entries leaves the old generation valid (its basis is a
    // prefix of the history) but no longer fresh.
    store::PendingEntry extra;
    extra.leaf_der = der_for("late.example", "late.example");
    extra.timestamp = 99;
    ASSERT_TRUE(store->append_batch({&extra, 1}).ok());

    IndexFsckReport report;
    auto loaded = load_latest(fs, *store, &report);
    ASSERT_NE(loaded, nullptr);
    EXPECT_TRUE(generation_valid_for(*store, *loaded));
    EXPECT_FALSE(report.fresh);
    EXPECT_EQ(report.valid_basis, 2u);
}

}  // namespace
}  // namespace unicert::ctlog::index
