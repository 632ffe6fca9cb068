// unicert/ctlog/merkle.h
//
// RFC 6962 Merkle hash tree: leaf/node hashing, root computation,
// audit (inclusion) proofs and consistency proofs. Backs the CT-log
// substrate's verifiability guarantees.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/expected.h"
#include "crypto/sha256.h"

namespace unicert::ctlog {

using crypto::Digest;

// MTH leaf hash: SHA-256(0x00 || entry).
Digest leaf_hash(BytesView entry);

// Interior node hash: SHA-256(0x01 || left || right).
Digest node_hash(const Digest& left, const Digest& right);

// Append-only Merkle tree over opaque entries (truncate() only rolls
// back a speculative append). It keeps the hash of every complete,
// aligned subtree (2^k leaves starting at a multiple of 2^k), computed
// once on append, so no read ever re-hashes leaves: a complete subtree
// is one lookup, root_at(n) folds the O(log n) nodes of n's binary
// decomposition, and a proof takes O(log^2 n) lookups or hashes. The
// cache costs about one digest per leaf beyond the leaf hashes
// themselves. Const calls only read, so any number of readers may
// share a tree while no append or truncate runs.
class MerkleTree {
public:
    // Append one entry; returns its leaf index.
    size_t append(BytesView entry);

    // Drop every leaf at index >= n (no-op when n >= size()), so a
    // speculative append can be rolled back.
    void truncate(size_t n);

    size_t size() const noexcept { return levels_.empty() ? 0 : levels_[0].size(); }

    // Merkle tree head over the current leaves (RFC 6962 sec. 2.1).
    // The empty tree's root is SHA-256 of the empty string.
    Digest root() const;

    // Root over the first n leaves (for consistency checks). Errors on
    // n beyond the current tree — a hostile or stale request, not a
    // programming error, so no assert/abort.
    Expected<Digest> root_at(size_t n) const;

    // Audit path proving leaf `index` is in the tree of size `tree_size`.
    // Out-of-range requests return a `proof_out_of_range` error.
    Expected<std::vector<Digest>> audit_proof(size_t index, size_t tree_size) const;

    // Consistency proof between tree sizes m <= n. Invalid size pairs
    // return a `proof_out_of_range` error.
    Expected<std::vector<Digest>> consistency_proof(size_t m, size_t n) const;

private:
    Digest subtree_root(size_t begin, size_t end) const;
    void subtree_proof(size_t target, size_t begin, size_t end,
                       std::vector<Digest>& proof) const;

    // levels_[k][i] = hash of leaves [i * 2^k, (i + 1) * 2^k); level 0
    // holds the leaf hashes.
    std::vector<std::vector<Digest>> levels_;
};

// Verify an audit path for `leaf` at `index` against `root`.
bool verify_audit_proof(const Digest& leaf, size_t index, size_t tree_size,
                        const std::vector<Digest>& proof, const Digest& root);

}  // namespace unicert::ctlog
