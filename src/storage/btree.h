#ifndef PJVM_STORAGE_BTREE_H_
#define PJVM_STORAGE_BTREE_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace pjvm {

/// \brief An in-memory B+-tree from Value keys to posting lists of T.
///
/// This single structure backs every index in the system:
///  - local non-clustered indexes (T = LocalRowId),
///  - local clustered indexes (T = LocalRowId; clustering is a property of
///    the owning fragment, see TableFragment),
///  - global index fragments (T = GlobalRowId, the paper's
///    "(value, list of global row ids)" entries).
///
/// Duplicate keys are stored as one leaf entry whose posting list holds all
/// items for that key, matching the paper's assumption that all matches for
/// a key live in one index entry (and, for clustered indexes, on one page).
///
/// The tree is not thread-safe and needs no locks: under the thread-per-node
/// executor every node's indexes are touched only by that node's worker
/// thread (single-writer-per-node; see DESIGN.md "Execution model"), so
/// isolation still holds by construction.
template <typename T>
class BPlusTree {
 public:
  using PostingList = std::vector<T>;

  /// `max_keys` is the fanout bound per node (leaf and internal); nodes split
  /// when they exceed it and merge/borrow when they fall below half.
  explicit BPlusTree(int max_keys = 64) : max_keys_(max_keys) {
    root_ = NewLeaf();
    first_leaf_ = static_cast<Leaf*>(root_.get());
  }

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;
  BPlusTree(BPlusTree&&) = default;
  BPlusTree& operator=(BPlusTree&&) = default;

  /// Adds `item` to the posting list of `key` (creating the entry if new).
  void Insert(const Value& key, const T& item) {
    InsertRec(root_.get(), key, item);
    if (NumKeys(root_.get()) > static_cast<size_t>(max_keys_)) SplitRoot();
  }

  /// Builds the tree bottom-up from `run`: (key, item) pairs sorted by key,
  /// with equal keys in the order their items should take in the posting
  /// list — the same tree contents as inserting the pairs one by one in that
  /// order. Leaves are filled to `max_keys`, then each internal level is
  /// laid over the one below. Precondition: the tree is empty.
  void BulkLoad(const std::vector<std::pair<const Value*, T>>& run) {
    const size_t fanout = static_cast<size_t>(max_keys_);
    std::vector<std::unique_ptr<NodeBase>> level;
    std::vector<const Value*> lows;  // smallest key under each level node
    size_t distinct = 0;
    for (size_t i = 0; i < run.size(); ++i) {
      if (i == 0 || *run[i - 1].first != *run[i].first) ++distinct;
    }
    Leaf* prev = nullptr;
    size_t at = 0;
    for (size_t want : EvenChunks(distinct, fanout)) {
      auto leaf = std::make_unique<Leaf>();
      leaf->keys.reserve(want);
      leaf->lists.reserve(want);
      for (size_t k = 0; k < want; ++k) {
        const Value& key = *run[at].first;
        leaf->keys.push_back(key);
        PostingList& list = leaf->lists.emplace_back();
        for (; at < run.size() && *run[at].first == key; ++at) {
          list.push_back(run[at].second);
        }
      }
      leaf->prev = prev;
      if (prev != nullptr) prev->next = leaf.get();
      prev = leaf.get();
      lows.push_back(&leaf->keys.front());
      level.push_back(std::move(leaf));
    }
    key_count_ = distinct;
    item_count_ = run.size();
    if (level.empty()) {
      root_ = NewLeaf();
      first_leaf_ = static_cast<Leaf*>(root_.get());
      return;
    }
    first_leaf_ = static_cast<Leaf*>(level.front().get());
    while (level.size() > 1) {
      std::vector<std::unique_ptr<NodeBase>> parents;
      std::vector<const Value*> parent_lows;
      size_t child = 0;
      for (size_t want : EvenChunks(level.size(), fanout + 1)) {
        auto in = std::make_unique<Internal>();
        in->children.reserve(want);
        in->keys.reserve(want - 1);
        parent_lows.push_back(lows[child]);
        for (size_t k = 0; k < want; ++k, ++child) {
          if (k > 0) in->keys.push_back(*lows[child]);
          in->children.push_back(std::move(level[child]));
        }
        parents.push_back(std::move(in));
      }
      level = std::move(parents);
      lows = std::move(parent_lows);
    }
    root_ = std::move(level.front());
  }

  /// Removes one occurrence of `item` from `key`'s posting list. Returns
  /// NotFound if the key or the item is absent. Erases the key entirely when
  /// its posting list becomes empty.
  Status Remove(const Value& key, const T& item) {
    Leaf* leaf = FindLeaf(key);
    int pos = LowerBound(leaf->keys, key);
    if (pos >= static_cast<int>(leaf->keys.size()) || leaf->keys[pos] != key) {
      return Status::NotFound("B+tree: key " + key.ToString() + " not present");
    }
    PostingList& list = leaf->lists[pos];
    auto it = std::find(list.begin(), list.end(), item);
    if (it == list.end()) {
      return Status::NotFound("B+tree: item not in posting list of key " +
                              key.ToString());
    }
    list.erase(it);
    --item_count_;
    if (list.empty()) EraseKey(key);
    return Status::OK();
  }

  /// Posting list for `key`, or nullptr if absent. The pointer is invalidated
  /// by any mutation.
  const PostingList* Find(const Value& key) const {
    const Leaf* leaf = FindLeaf(key);
    int pos = LowerBound(leaf->keys, key);
    if (pos >= static_cast<int>(leaf->keys.size()) || leaf->keys[pos] != key) {
      return nullptr;
    }
    return &leaf->lists[pos];
  }

  /// Visits every (key, item) pair with key in [lo, hi], in key order.
  /// Returning false from the callback stops the scan.
  void ScanRange(const Value& lo, const Value& hi,
                 const std::function<bool(const Value&, const T&)>& fn) const {
    const Leaf* leaf = FindLeaf(lo);
    int pos = LowerBound(leaf->keys, lo);
    while (leaf != nullptr) {
      for (; pos < static_cast<int>(leaf->keys.size()); ++pos) {
        if (hi < leaf->keys[pos]) return;
        for (const T& item : leaf->lists[pos]) {
          if (!fn(leaf->keys[pos], item)) return;
        }
      }
      leaf = leaf->next;
      pos = 0;
    }
  }

  /// Visits every (key, posting list) entry in key order.
  void ForEachEntry(
      const std::function<bool(const Value&, const PostingList&)>& fn) const {
    for (const Leaf* leaf = first_leaf_; leaf != nullptr; leaf = leaf->next) {
      for (size_t i = 0; i < leaf->keys.size(); ++i) {
        if (!fn(leaf->keys[i], leaf->lists[i])) return;
      }
    }
  }

  /// Number of distinct keys.
  size_t num_keys() const { return key_count_; }
  /// Total number of stored items across all posting lists.
  size_t num_items() const { return item_count_; }
  bool empty() const { return item_count_ == 0; }

  int height() const {
    int h = 1;
    const NodeBase* n = root_.get();
    while (!n->is_leaf) {
      n = static_cast<const Internal*>(n)->children[0].get();
      ++h;
    }
    return h;
  }

  /// Structural self-check: key ordering within and across nodes, fanout
  /// bounds, leaf chain consistency, and counter agreement. For tests.
  Status CheckInvariants() const {
    size_t keys_seen = 0;
    size_t items_seen = 0;
    const Value* prev = nullptr;
    Status st = CheckNode(root_.get(), nullptr, nullptr, /*is_root=*/true);
    if (!st.ok()) return st;
    for (const Leaf* leaf = first_leaf_; leaf != nullptr; leaf = leaf->next) {
      for (size_t i = 0; i < leaf->keys.size(); ++i) {
        if (prev != nullptr && !(*prev < leaf->keys[i])) {
          return Status::Internal("B+tree: leaf chain keys out of order at " +
                                  leaf->keys[i].ToString());
        }
        if (leaf->lists[i].empty()) {
          return Status::Internal("B+tree: empty posting list for key " +
                                  leaf->keys[i].ToString());
        }
        prev = &leaf->keys[i];
        ++keys_seen;
        items_seen += leaf->lists[i].size();
      }
    }
    if (keys_seen != key_count_) {
      return Status::Internal("B+tree: key_count_ " + std::to_string(key_count_) +
                              " != scanned " + std::to_string(keys_seen));
    }
    if (items_seen != item_count_) {
      return Status::Internal("B+tree: item_count_ " +
                              std::to_string(item_count_) + " != scanned " +
                              std::to_string(items_seen));
    }
    return Status::OK();
  }

 private:
  struct NodeBase {
    bool is_leaf;
    std::vector<Value> keys;
    explicit NodeBase(bool leaf) : is_leaf(leaf) {}
    virtual ~NodeBase() = default;
  };

  struct Leaf : NodeBase {
    std::vector<PostingList> lists;
    Leaf* next = nullptr;
    Leaf* prev = nullptr;
    Leaf() : NodeBase(true) {}
  };

  struct Internal : NodeBase {
    // children.size() == keys.size() + 1; keys[i] is the smallest key in
    // children[i + 1]'s subtree.
    std::vector<std::unique_ptr<NodeBase>> children;
    Internal() : NodeBase(false) {}
  };

  static int LowerBound(const std::vector<Value>& keys, const Value& key) {
    return static_cast<int>(
        std::lower_bound(keys.begin(), keys.end(), key) - keys.begin());
  }
  static int UpperBound(const std::vector<Value>& keys, const Value& key) {
    return static_cast<int>(
        std::upper_bound(keys.begin(), keys.end(), key) - keys.begin());
  }

  static size_t NumKeys(const NodeBase* n) { return n->keys.size(); }

  /// Sizes of the fewest chunks of at most `cap` that cover `total`, as
  /// even as possible (so no chunk is starved next to full ones).
  static std::vector<size_t> EvenChunks(size_t total, size_t cap) {
    const size_t chunks = (total + cap - 1) / cap;
    std::vector<size_t> sizes(chunks);
    for (size_t i = 0; i < chunks; ++i) {
      sizes[i] = total / chunks + (i < total % chunks ? 1 : 0);
    }
    return sizes;
  }

  std::unique_ptr<NodeBase> NewLeaf() { return std::make_unique<Leaf>(); }

  Leaf* FindLeaf(const Value& key) const {
    NodeBase* n = root_.get();
    while (!n->is_leaf) {
      Internal* in = static_cast<Internal*>(n);
      int pos = UpperBound(in->keys, key);
      n = in->children[pos].get();
    }
    return static_cast<Leaf*>(n);
  }

  // Inserts into the subtree rooted at `n`; the caller handles a root split.
  void InsertRec(NodeBase* n, const Value& key, const T& item) {
    if (n->is_leaf) {
      Leaf* leaf = static_cast<Leaf*>(n);
      int pos = LowerBound(leaf->keys, key);
      if (pos < static_cast<int>(leaf->keys.size()) && leaf->keys[pos] == key) {
        leaf->lists[pos].push_back(item);
      } else {
        leaf->keys.insert(leaf->keys.begin() + pos, key);
        leaf->lists.insert(leaf->lists.begin() + pos, PostingList{item});
        ++key_count_;
      }
      ++item_count_;
      return;
    }
    Internal* in = static_cast<Internal*>(n);
    int pos = UpperBound(in->keys, key);
    NodeBase* child = in->children[pos].get();
    InsertRec(child, key, item);
    if (NumKeys(child) > static_cast<size_t>(max_keys_)) {
      SplitChild(in, pos);
    }
  }

  // Splits in->children[pos] (which overflowed) into two siblings.
  void SplitChild(Internal* parent, int pos) {
    NodeBase* child = parent->children[pos].get();
    if (child->is_leaf) {
      Leaf* left = static_cast<Leaf*>(child);
      auto right_owned = std::make_unique<Leaf>();
      Leaf* right = right_owned.get();
      size_t mid = left->keys.size() / 2;
      right->keys.assign(left->keys.begin() + mid, left->keys.end());
      right->lists.assign(std::make_move_iterator(left->lists.begin() + mid),
                          std::make_move_iterator(left->lists.end()));
      left->keys.resize(mid);
      left->lists.resize(mid);
      right->next = left->next;
      right->prev = left;
      if (right->next != nullptr) right->next->prev = right;
      left->next = right;
      parent->keys.insert(parent->keys.begin() + pos, right->keys.front());
      parent->children.insert(parent->children.begin() + pos + 1,
                              std::move(right_owned));
    } else {
      Internal* left = static_cast<Internal*>(child);
      auto right_owned = std::make_unique<Internal>();
      Internal* right = right_owned.get();
      size_t mid = left->keys.size() / 2;
      Value up = left->keys[mid];
      right->keys.assign(left->keys.begin() + mid + 1, left->keys.end());
      right->children.assign(
          std::make_move_iterator(left->children.begin() + mid + 1),
          std::make_move_iterator(left->children.end()));
      left->keys.resize(mid);
      left->children.resize(mid + 1);
      parent->keys.insert(parent->keys.begin() + pos, up);
      parent->children.insert(parent->children.begin() + pos + 1,
                              std::move(right_owned));
    }
  }

  void SplitRoot() {
    auto new_root = std::make_unique<Internal>();
    new_root->children.push_back(std::move(root_));
    SplitChild(new_root.get(), 0);
    root_ = std::move(new_root);
  }

  // Erases a key whose posting list is empty. Rebalancing strategy: remove
  // from the leaf; if the leaf underflows, borrow from or merge with a
  // sibling, recursively fixing parents.
  void EraseKey(const Value& key) {
    EraseRec(root_.get(), key);
    --key_count_;
    // Shrink the root if it became a pass-through internal node.
    while (!root_->is_leaf && root_->keys.empty()) {
      Internal* in = static_cast<Internal*>(root_.get());
      root_ = std::move(in->children[0]);
    }
    if (root_->is_leaf) first_leaf_ = static_cast<Leaf*>(root_.get());
  }

  void EraseRec(NodeBase* n, const Value& key) {
    if (n->is_leaf) {
      Leaf* leaf = static_cast<Leaf*>(n);
      int pos = LowerBound(leaf->keys, key);
      leaf->keys.erase(leaf->keys.begin() + pos);
      leaf->lists.erase(leaf->lists.begin() + pos);
      return;
    }
    Internal* in = static_cast<Internal*>(n);
    int pos = UpperBound(in->keys, key);
    NodeBase* child = in->children[pos].get();
    EraseRec(child, key);
    if (NumKeys(child) < 1 ||
        (!child->is_leaf &&
         static_cast<Internal*>(child)->children.size() < 2)) {
      FixUnderflow(in, pos);
    }
    // A delete (or the rebalance it triggered) may have changed the smallest
    // key under any child of `in`; recompute all separators. This is
    // O(fanout x height) per delete, which is fine for an in-memory tree.
    for (size_t i = 1; i < in->children.size(); ++i) {
      const Value* smallest = SmallestKey(in->children[i].get());
      if (smallest != nullptr) in->keys[i - 1] = *smallest;
    }
  }

  static const Value* SmallestKey(const NodeBase* n) {
    while (!n->is_leaf) {
      n = static_cast<const Internal*>(n)->children[0].get();
    }
    const Leaf* leaf = static_cast<const Leaf*>(n);
    if (leaf->keys.empty()) return nullptr;
    return &leaf->keys.front();
  }

  // Merges or borrows for in->children[pos] after an underflow.
  void FixUnderflow(Internal* parent, int pos) {
    NodeBase* child = parent->children[pos].get();
    // Prefer borrowing from the right sibling, then left; otherwise merge.
    if (pos + 1 < static_cast<int>(parent->children.size())) {
      NodeBase* right = parent->children[pos + 1].get();
      if (NumKeys(right) > 1) {
        BorrowFromRight(parent, pos);
        return;
      }
      MergeWithRight(parent, pos);
      return;
    }
    if (pos > 0) {
      NodeBase* left = parent->children[pos - 1].get();
      if (NumKeys(left) > 1) {
        BorrowFromLeft(parent, pos);
        return;
      }
      MergeWithRight(parent, pos - 1);
      return;
    }
    (void)child;
  }

  void BorrowFromRight(Internal* parent, int pos) {
    NodeBase* child = parent->children[pos].get();
    NodeBase* right = parent->children[pos + 1].get();
    if (child->is_leaf) {
      Leaf* l = static_cast<Leaf*>(child);
      Leaf* r = static_cast<Leaf*>(right);
      l->keys.push_back(r->keys.front());
      l->lists.push_back(std::move(r->lists.front()));
      r->keys.erase(r->keys.begin());
      r->lists.erase(r->lists.begin());
      parent->keys[pos] = r->keys.front();
    } else {
      Internal* l = static_cast<Internal*>(child);
      Internal* r = static_cast<Internal*>(right);
      l->keys.push_back(parent->keys[pos]);
      l->children.push_back(std::move(r->children.front()));
      parent->keys[pos] = r->keys.front();
      r->keys.erase(r->keys.begin());
      r->children.erase(r->children.begin());
    }
  }

  void BorrowFromLeft(Internal* parent, int pos) {
    NodeBase* child = parent->children[pos].get();
    NodeBase* left = parent->children[pos - 1].get();
    if (child->is_leaf) {
      Leaf* c = static_cast<Leaf*>(child);
      Leaf* l = static_cast<Leaf*>(left);
      c->keys.insert(c->keys.begin(), l->keys.back());
      c->lists.insert(c->lists.begin(), std::move(l->lists.back()));
      l->keys.pop_back();
      l->lists.pop_back();
      parent->keys[pos - 1] = c->keys.front();
    } else {
      Internal* c = static_cast<Internal*>(child);
      Internal* l = static_cast<Internal*>(left);
      c->keys.insert(c->keys.begin(), parent->keys[pos - 1]);
      c->children.insert(c->children.begin(), std::move(l->children.back()));
      parent->keys[pos - 1] = l->keys.back();
      l->keys.pop_back();
      l->children.pop_back();
    }
  }

  // Merges children[pos] and children[pos + 1] into children[pos].
  void MergeWithRight(Internal* parent, int pos) {
    NodeBase* child = parent->children[pos].get();
    NodeBase* right = parent->children[pos + 1].get();
    if (child->is_leaf) {
      Leaf* l = static_cast<Leaf*>(child);
      Leaf* r = static_cast<Leaf*>(right);
      l->keys.insert(l->keys.end(), r->keys.begin(), r->keys.end());
      for (auto& pl : r->lists) l->lists.push_back(std::move(pl));
      l->next = r->next;
      if (l->next != nullptr) l->next->prev = l;
    } else {
      Internal* l = static_cast<Internal*>(child);
      Internal* r = static_cast<Internal*>(right);
      l->keys.push_back(parent->keys[pos]);
      l->keys.insert(l->keys.end(), r->keys.begin(), r->keys.end());
      for (auto& c : r->children) l->children.push_back(std::move(c));
    }
    parent->keys.erase(parent->keys.begin() + pos);
    parent->children.erase(parent->children.begin() + pos + 1);
  }

  Status CheckNode(const NodeBase* n, const Value* lo, const Value* hi,
                   bool is_root) const {
    if (!is_root && n->keys.empty()) {
      return Status::Internal("B+tree: non-root node with no keys");
    }
    if (n->keys.size() > static_cast<size_t>(max_keys_)) {
      return Status::Internal("B+tree: node exceeds max_keys");
    }
    for (size_t i = 0; i + 1 < n->keys.size(); ++i) {
      if (!(n->keys[i] < n->keys[i + 1])) {
        return Status::Internal("B+tree: node keys out of order");
      }
    }
    for (const Value& k : n->keys) {
      if (lo != nullptr && k < *lo) {
        return Status::Internal("B+tree: key below subtree lower bound");
      }
      if (hi != nullptr && !(k < *hi)) {
        return Status::Internal("B+tree: key at/above subtree upper bound");
      }
    }
    if (!n->is_leaf) {
      const Internal* in = static_cast<const Internal*>(n);
      if (in->children.size() != in->keys.size() + 1) {
        return Status::Internal("B+tree: internal child count mismatch");
      }
      for (size_t i = 0; i < in->children.size(); ++i) {
        const Value* clo = (i == 0) ? lo : &in->keys[i - 1];
        const Value* chi = (i == in->keys.size()) ? hi : &in->keys[i];
        Status st =
            CheckNode(in->children[i].get(), clo, chi, /*is_root=*/false);
        if (!st.ok()) return st;
      }
    }
    return Status::OK();
  }

  int max_keys_;
  std::unique_ptr<NodeBase> root_;
  Leaf* first_leaf_ = nullptr;
  size_t key_count_ = 0;
  size_t item_count_ = 0;
};

}  // namespace pjvm

#endif  // PJVM_STORAGE_BTREE_H_
