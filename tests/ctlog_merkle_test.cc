// Tests for the RFC 6962 Merkle tree, including a seeded property that
// the cached tree's roots and proofs equal a plain RFC 6962
// recomputation from the leaf hashes.
#include "ctlog/merkle.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>

#include "ctlog/corpus.h"

namespace unicert::ctlog {
namespace {

std::string hex(const Digest& d) { return hex_encode(BytesView(d.data(), d.size())); }

Bytes entry_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

// RFC 6962 sec. 2.1 over a list of leaf hashes: MTH, PATH and
// SUBPROOF as the RFC writes them, recomputed from the leaves (the
// memo only saves repeating the same range).
class Reference {
public:
    std::vector<Digest> leaves;

    void append(BytesView entry) {
        leaves.push_back(leaf_hash(entry));
        memo_.clear();
    }
    void truncate(size_t n) {
        leaves.resize(n);
        memo_.clear();
    }

    // MTH(D[begin:end]).
    Digest mth(size_t begin, size_t end) {
        if (begin == end) return crypto::sha256({});
        if (end - begin == 1) return leaves[begin];
        auto found = memo_.find({begin, end});
        if (found != memo_.end()) return found->second;
        size_t k = split(end - begin);
        Digest d = node_hash(mth(begin, begin + k), mth(begin + k, end));
        memo_.emplace(std::make_pair(begin, end), d);
        return d;
    }

    // PATH(m, D[begin:end]).
    void path(size_t m, size_t begin, size_t end, std::vector<Digest>& out) {
        if (end - begin <= 1) return;
        size_t k = split(end - begin);
        if (m < k) {
            path(m, begin, begin + k, out);
            out.push_back(mth(begin + k, end));
        } else {
            path(m - k, begin + k, end, out);
            out.push_back(mth(begin, begin + k));
        }
    }

    // SUBPROOF(m, D[begin:end], b).
    void subproof(size_t m, size_t begin, size_t end, bool b, std::vector<Digest>& out) {
        size_t n = end - begin;
        if (m == n) {
            if (!b) out.push_back(mth(begin, end));
            return;
        }
        size_t k = split(n);
        if (m <= k) {
            subproof(m, begin, begin + k, b, out);
            out.push_back(mth(begin + k, end));
        } else {
            subproof(m - k, begin + k, end, false, out);
            out.push_back(mth(begin, begin + k));
        }
    }

    std::vector<Digest> audit(size_t index, size_t tree_size) {
        std::vector<Digest> out;
        path(index, 0, tree_size, out);
        return out;
    }
    std::vector<Digest> consistency(size_t m, size_t n) {
        std::vector<Digest> out;
        if (m < n) subproof(m, 0, n, true, out);
        return out;
    }

private:
    // Largest power of two strictly below n.
    static size_t split(size_t n) {
        size_t k = 1;
        while (k * 2 < n) k *= 2;
        return k;
    }

    std::map<std::pair<size_t, size_t>, Digest> memo_;
};

// Every root and consistency proof of `tree` against the reference,
// plus the audit proof of every leaf at the tree's own size.
void expect_matches_reference(const MerkleTree& tree, Reference& ref, const std::string& at) {
    const size_t n = tree.size();
    ASSERT_EQ(n, ref.leaves.size()) << at;
    ASSERT_TRUE(tree.root() == ref.mth(0, n)) << at;
    for (size_t m = 0; m <= n; ++m) {
        auto root = tree.root_at(m);
        ASSERT_TRUE(root.ok() && *root == ref.mth(0, m)) << at << " root_at(" << m << ")";
        if (m == 0) continue;
        auto consistency = tree.consistency_proof(m, n);
        ASSERT_TRUE(consistency.ok() && *consistency == ref.consistency(m, n))
            << at << " consistency_proof(" << m << ", " << n << ")";
    }
    for (size_t i = 0; i < n; ++i) {
        auto proof = tree.audit_proof(i, n);
        ASSERT_TRUE(proof.ok() && *proof == ref.audit(i, n)) << at << " audit_proof(" << i << ")";
        ASSERT_TRUE(verify_audit_proof(ref.leaves[i], i, n, *proof, ref.mth(0, n))) << at;
    }
}

TEST(Merkle, RootMatchesReferenceAtEverySize) {
    MerkleTree tree;
    Reference ref;
    EXPECT_EQ(tree.root(), ref.mth(0, 0));  // empty: SHA-256("")
    for (int i = 0; i < 130; ++i) {
        Bytes leaf = entry_bytes("leaf-" + std::to_string(i));
        tree.append(leaf);
        ref.append(leaf);
        ASSERT_EQ(tree.root(), ref.mth(0, ref.leaves.size())) << "size " << i + 1;
    }
    EXPECT_EQ(tree.size(), 130u);
}

TEST(Merkle, CachedProofsMatchReferenceForEverySizePair) {
    // Past 2^7, so every level up to 7 holds complete and partial nodes.
    constexpr size_t kMaxSize = 130;
    Reference ref;
    for (size_t i = 0; i < kMaxSize; ++i) ref.append(entry_bytes("e" + std::to_string(i)));

    MerkleTree tree;
    for (size_t n = 1; n <= kMaxSize; ++n) {
        tree.append(entry_bytes("e" + std::to_string(n - 1)));
        for (size_t m = 1; m <= n; ++m) {
            auto root = tree.root_at(m);
            ASSERT_TRUE(root.ok() && *root == ref.mth(0, m)) << "n " << n << " m " << m;
            auto consistency = tree.consistency_proof(m, n);
            ASSERT_TRUE(consistency.ok() && *consistency == ref.consistency(m, n))
                << "consistency n " << n << " m " << m;
            for (size_t i = 0; i < m; ++i) {
                auto proof = tree.audit_proof(i, m);
                ASSERT_TRUE(proof.ok() && *proof == ref.audit(i, m))
                    << "audit n " << n << " m " << m << " i " << i;
                // A proof equal to the reference verifies the same at
                // every n; check it once, at the size that first has it.
                if (m == n) {
                    ASSERT_TRUE(verify_audit_proof(ref.leaves[i], i, m, *proof, *root))
                        << "verify m " << m << " i " << i;
                }
            }
        }
    }
}

TEST(Merkle, TruncateThenAppendMatchesReference) {
    // Seeded append / truncate / append runs: a rolled-back speculative
    // append must leave no stale node behind.
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        Rng rng(0x3E4C1E00 + seed);
        MerkleTree tree;
        Reference ref;
        for (int step = 0; step < 24; ++step) {
            const std::string at = "seed " + std::to_string(seed) + " step " + std::to_string(step);
            if (tree.size() > 0 && rng.chance(0.4)) {
                size_t keep = rng.below(tree.size() + 1);
                tree.truncate(keep);
                ref.truncate(keep);
            } else {
                size_t count = 1 + rng.below(33);
                for (size_t k = 0; k < count; ++k) {
                    Bytes leaf = entry_bytes(std::to_string(seed) + ":" + std::to_string(step) +
                                             ":" + std::to_string(k));
                    tree.append(leaf);
                    ref.append(leaf);
                }
            }
            expect_matches_reference(tree, ref, at);
            if (HasFatalFailure()) return;
        }
    }
}

TEST(Merkle, TruncateBeyondSizeIsANoOp) {
    MerkleTree tree;
    for (int i = 0; i < 5; ++i) tree.append(entry_bytes("e" + std::to_string(i)));
    Digest before = tree.root();
    tree.truncate(5);
    tree.truncate(9);
    EXPECT_EQ(tree.size(), 5u);
    EXPECT_EQ(tree.root(), before);
    tree.truncate(0);
    EXPECT_EQ(tree.size(), 0u);
    EXPECT_EQ(hex(tree.root()),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Merkle, EmptyTreeRootIsSha256OfEmpty) {
    MerkleTree tree;
    EXPECT_EQ(hex(tree.root()),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Merkle, SingleLeafRootIsLeafHash) {
    MerkleTree tree;
    Bytes entry = to_bytes("entry-0");
    tree.append(entry);
    EXPECT_EQ(tree.root(), leaf_hash(entry));
}

TEST(Merkle, Rfc6962LeafAndNodePrefixes) {
    // d(0x00 || "") from RFC 6962 section 2.1:
    MerkleTree tree;
    tree.append({});
    EXPECT_EQ(hex(tree.root()),
              "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d");
}

TEST(Merkle, TwoLeafRoot) {
    MerkleTree tree;
    Bytes a = to_bytes("a"), b = to_bytes("b");
    tree.append(a);
    tree.append(b);
    EXPECT_EQ(tree.root(), node_hash(leaf_hash(a), leaf_hash(b)));
}

TEST(Merkle, RootChangesOnAppend) {
    MerkleTree tree;
    tree.append(to_bytes("a"));
    Digest r1 = tree.root();
    tree.append(to_bytes("b"));
    EXPECT_NE(tree.root(), r1);
    auto old_root = tree.root_at(1);  // old head still derivable
    ASSERT_TRUE(old_root.ok());
    EXPECT_EQ(old_root.value(), r1);
}

TEST(Merkle, RootAtZeroIsEmptyTreeRoot) {
    MerkleTree tree;
    tree.append(to_bytes("a"));
    auto root = tree.root_at(0);
    ASSERT_TRUE(root.ok());
    EXPECT_EQ(hex(root.value()),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Merkle, RootAtBeyondTreeIsAnError) {
    MerkleTree tree;
    tree.append(to_bytes("a"));
    auto root = tree.root_at(2);
    ASSERT_FALSE(root.ok());
    EXPECT_EQ(root.error().code, "proof_out_of_range");
}

TEST(Merkle, AuditProofsVerifyForAllLeaves) {
    MerkleTree tree;
    std::vector<Bytes> entries;
    for (int i = 0; i < 13; ++i) {  // odd size exercises unbalanced splits
        entries.push_back(to_bytes("entry-" + std::to_string(i)));
        tree.append(entries.back());
    }
    Digest root = tree.root();
    for (size_t i = 0; i < entries.size(); ++i) {
        auto proof = tree.audit_proof(i, tree.size());
        ASSERT_TRUE(proof.ok()) << "leaf " << i;
        EXPECT_TRUE(
            verify_audit_proof(leaf_hash(entries[i]), i, tree.size(), proof.value(), root))
            << "leaf " << i;
    }
}

TEST(Merkle, AuditProofFailsForWrongLeaf) {
    MerkleTree tree;
    for (int i = 0; i < 8; ++i) tree.append(to_bytes("e" + std::to_string(i)));
    auto proof = tree.audit_proof(3, tree.size());
    ASSERT_TRUE(proof.ok());
    EXPECT_FALSE(verify_audit_proof(leaf_hash(to_bytes("forged")), 3, tree.size(),
                                    proof.value(), tree.root()));
}

TEST(Merkle, AuditProofFailsForWrongIndex) {
    MerkleTree tree;
    std::vector<Bytes> entries;
    for (int i = 0; i < 8; ++i) {
        entries.push_back(to_bytes("e" + std::to_string(i)));
        tree.append(entries.back());
    }
    auto proof = tree.audit_proof(3, tree.size());
    ASSERT_TRUE(proof.ok());
    EXPECT_FALSE(
        verify_audit_proof(leaf_hash(entries[3]), 4, tree.size(), proof.value(), tree.root()));
}

TEST(Merkle, AuditProofAgainstPastTreeSize) {
    MerkleTree tree;
    std::vector<Bytes> entries;
    for (int i = 0; i < 10; ++i) {
        entries.push_back(to_bytes("e" + std::to_string(i)));
        tree.append(entries.back());
    }
    // Prove inclusion of leaf 2 in the first 6-leaf tree.
    auto proof = tree.audit_proof(2, 6);
    ASSERT_TRUE(proof.ok());
    auto old_root = tree.root_at(6);
    ASSERT_TRUE(old_root.ok());
    EXPECT_TRUE(verify_audit_proof(leaf_hash(entries[2]), 2, 6, proof.value(),
                                   old_root.value()));
}

TEST(Merkle, ConsistencyProofSizes) {
    MerkleTree tree;
    for (int i = 0; i < 16; ++i) tree.append(to_bytes("e" + std::to_string(i)));
    auto same = tree.consistency_proof(16, 16);
    ASSERT_TRUE(same.ok());
    EXPECT_TRUE(same.value().empty());  // same size: empty proof
    auto grow = tree.consistency_proof(8, 16);
    ASSERT_TRUE(grow.ok());
    EXPECT_FALSE(grow.value().empty());
}

TEST(Merkle, HostileProofRequestsAreErrorsNotAborts) {
    // These used to be assert() territory; a hostile or stale request
    // must come back as a recoverable Error instead.
    MerkleTree tree;
    tree.append(to_bytes("a"));
    for (auto [index, tree_size] : {std::pair<size_t, size_t>{5, 1},
                                    std::pair<size_t, size_t>{0, 0},
                                    std::pair<size_t, size_t>{0, 9}}) {
        auto proof = tree.audit_proof(index, tree_size);
        ASSERT_FALSE(proof.ok()) << index << "/" << tree_size;
        EXPECT_EQ(proof.error().code, "proof_out_of_range");
    }
    for (auto [m, n] : {std::pair<size_t, size_t>{0, 1}, std::pair<size_t, size_t>{2, 1},
                        std::pair<size_t, size_t>{1, 9}}) {
        auto proof = tree.consistency_proof(m, n);
        ASSERT_FALSE(proof.ok()) << m << "->" << n;
        EXPECT_EQ(proof.error().code, "proof_out_of_range");
    }
}

}  // namespace
}  // namespace unicert::ctlog
