#include "ctlog/merkle.h"

#include <bit>
#include <string>

namespace unicert::ctlog {
namespace {

// Largest power of two strictly less than n (RFC 6962's split point).
size_t split_point(size_t n) {
    size_t k = 1;
    while (k * 2 < n) k *= 2;
    return k;
}

}  // namespace

Digest leaf_hash(BytesView entry) {
    crypto::Sha256 h;
    uint8_t prefix = 0x00;
    h.update({&prefix, 1});
    h.update(entry);
    return h.finish();
}

Digest node_hash(const Digest& left, const Digest& right) {
    crypto::Sha256 h;
    uint8_t prefix = 0x01;
    h.update({&prefix, 1});
    h.update({left.data(), left.size()});
    h.update({right.data(), right.size()});
    return h.finish();
}

size_t MerkleTree::append(BytesView entry) {
    if (levels_.empty()) levels_.emplace_back();
    levels_[0].push_back(leaf_hash(entry));
    // Each level whose length turns even gains a complete pair: hash it
    // into the level above.
    for (size_t k = 0; levels_[k].size() % 2 == 0; ++k) {
        if (k + 1 == levels_.size()) levels_.emplace_back();
        const std::vector<Digest>& level = levels_[k];
        levels_[k + 1].push_back(node_hash(level[level.size() - 2], level.back()));
    }
    return levels_[0].size() - 1;
}

void MerkleTree::truncate(size_t n) {
    if (n >= size()) return;
    for (size_t k = 0; k < levels_.size(); ++k) levels_[k].resize(n >> k);
    while (!levels_.empty() && levels_.back().empty()) levels_.pop_back();
}

Digest MerkleTree::subtree_root(size_t begin, size_t end) const {
    // Public entry points validate ranges; an inverted range here would
    // be an internal bug, answered with the empty-tree hash rather than
    // undefined behaviour.
    if (begin >= end || end > size()) return crypto::sha256({});
    size_t n = end - begin;
    if ((n & (n - 1)) == 0 && begin % n == 0) {
        // Complete and aligned: cached at level log2(n).
        size_t k = static_cast<size_t>(std::countr_zero(n));
        return levels_[k][begin >> k];
    }
    // RFC 6962 splits put every left half on a cached node, so only
    // the right spine recurses.
    size_t k = split_point(n);
    return node_hash(subtree_root(begin, begin + k), subtree_root(begin + k, end));
}

Digest MerkleTree::root() const {
    if (size() == 0) return crypto::sha256({});
    return subtree_root(0, size());
}

Expected<Digest> MerkleTree::root_at(size_t n) const {
    if (n == 0) return crypto::sha256({});
    if (n > size()) {
        return Error{"proof_out_of_range",
                     "tree size " + std::to_string(n) + " exceeds " +
                         std::to_string(size()) + " leaves"};
    }
    return subtree_root(0, n);
}

void MerkleTree::subtree_proof(size_t target, size_t begin, size_t end,
                               std::vector<Digest>& proof) const {
    if (end - begin == 1) return;
    size_t k = split_point(end - begin);
    if (target < begin + k) {
        subtree_proof(target, begin, begin + k, proof);
        proof.push_back(subtree_root(begin + k, end));
    } else {
        subtree_proof(target, begin + k, end, proof);
        proof.push_back(subtree_root(begin, begin + k));
    }
}

Expected<std::vector<Digest>> MerkleTree::audit_proof(size_t index, size_t tree_size) const {
    if (tree_size == 0 || tree_size > size()) {
        return Error{"proof_out_of_range",
                     "audit proof for tree size " + std::to_string(tree_size) +
                         " of a " + std::to_string(size()) + "-leaf tree"};
    }
    if (index >= tree_size) {
        return Error{"proof_out_of_range",
                     "leaf index " + std::to_string(index) + " outside tree size " +
                         std::to_string(tree_size)};
    }
    std::vector<Digest> proof;
    subtree_proof(index, 0, tree_size, proof);
    return proof;
}

Expected<std::vector<Digest>> MerkleTree::consistency_proof(size_t m, size_t n) const {
    // RFC 6962 sec. 2.1.2, iterative SUBPROOF.
    std::vector<Digest> proof;
    if (m == 0 || m > n || n > size()) {
        return Error{"proof_out_of_range",
                     "consistency proof " + std::to_string(m) + " -> " + std::to_string(n) +
                         " invalid for a " + std::to_string(size()) + "-leaf tree"};
    }
    if (m == n) return proof;

    // Recursive helper via lambda.
    struct Helper {
        const MerkleTree& tree;
        std::vector<Digest>& proof;
        void subproof(size_t m, size_t begin, size_t end, bool full_subtree) {
            size_t n = end - begin;
            if (m == n) {
                if (!full_subtree) proof.push_back(tree.subtree_root(begin, end));
                return;
            }
            size_t k = split_point(n);
            if (m <= k) {
                subproof(m, begin, begin + k, full_subtree);
                proof.push_back(tree.subtree_root(begin + k, end));
            } else {
                subproof(m - k, begin + k, end, false);
                proof.push_back(tree.subtree_root(begin, begin + k));
            }
        }
    };
    Helper helper{*this, proof};
    helper.subproof(m, 0, n, true);
    return proof;
}

bool verify_audit_proof(const Digest& leaf, size_t index, size_t tree_size,
                        const std::vector<Digest>& proof, const Digest& root) {
    if (tree_size == 0 || index >= tree_size) return false;
    // Replay the splits from the root down: true where the sibling is
    // on the right.
    std::vector<bool> sibling_right;
    for (size_t begin = 0, end = tree_size; end - begin > 1;) {
        size_t k = split_point(end - begin);
        sibling_right.push_back(index < begin + k);
        if (index < begin + k) {
            end = begin + k;
        } else {
            begin += k;
        }
    }
    if (sibling_right.size() != proof.size()) return false;
    // The proof runs from the leaf up, so fold the splits in reverse.
    Digest hash = leaf;
    auto sibling = proof.begin();
    for (auto right = sibling_right.rbegin(); right != sibling_right.rend(); ++right, ++sibling) {
        hash = *right ? node_hash(hash, *sibling) : node_hash(*sibling, hash);
    }
    return hash == root;
}

}  // namespace unicert::ctlog
