//! Tree structures for Tree-LSTM-style models.
//!
//! Sentiment trees (SST-style) are binary trees whose leaves carry word
//! ids; internal nodes combine children bottom-up. [`TreeBatch`] implements
//! DGL's batching trick: many small trees are merged and processed
//! level-by-level so each level is one batched kernel launch.

use gnnmark_tensor::{IntTensor, TensorError};

use crate::Result;

/// One node of a [`Tree`].
#[derive(Debug, Clone)]
pub struct TreeNode {
    /// Children indices (empty for leaves).
    pub children: Vec<usize>,
    /// Word id for leaves, `None` for internal nodes.
    pub word: Option<i64>,
    /// Sentiment label of the subtree rooted here.
    pub label: i64,
}

/// A rooted tree with per-node labels (sentiment treebank style).
#[derive(Debug, Clone)]
pub struct Tree {
    nodes: Vec<TreeNode>,
    root: usize,
}

impl Tree {
    /// Builds a tree from nodes; `root` is the index of the root node.
    ///
    /// # Errors
    /// Returns an error if `root` or any child index is out of range, or a
    /// node is its own child.
    pub fn new(nodes: Vec<TreeNode>, root: usize) -> Result<Self> {
        let n = nodes.len();
        if root >= n {
            return Err(TensorError::IndexOutOfBounds {
                op: "Tree::new",
                index: root,
                bound: n,
            });
        }
        for (i, node) in nodes.iter().enumerate() {
            for &c in &node.children {
                if c >= n || c == i {
                    return Err(TensorError::InvalidArgument {
                        op: "Tree::new",
                        reason: format!("node {i} has invalid child {c}"),
                    });
                }
            }
        }
        Ok(Tree { nodes, root })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the tree has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Root node index.
    pub fn root(&self) -> usize {
        self.root
    }

    /// The nodes, by index.
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// Height of each node (leaves are 0; parents one more than their
    /// tallest child). Used to schedule level-parallel processing.
    fn heights(&self) -> Vec<usize> {
        let mut h = vec![0usize; self.nodes.len()];
        // Nodes may appear in any order; iterate until fixpoint (tree depth
        // bounded by node count).
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..self.nodes.len() {
                let want = self.nodes[i]
                    .children
                    .iter()
                    .map(|&c| h[c] + 1)
                    .max()
                    .unwrap_or(0);
                if h[i] != want {
                    h[i] = want;
                    changed = true;
                }
            }
        }
        h
    }
}

/// One processing level of a [`TreeBatch`].
#[derive(Debug, Clone)]
pub struct TreeLevel {
    /// Global node ids processed at this level.
    pub nodes: IntTensor,
    /// For each node at this level: global ids of its (up to 2) children,
    /// or -1 padding. Shape `[level_size, max_children]`, flattened.
    pub child_ids: IntTensor,
    /// Maximum child count at this level.
    pub max_children: usize,
}

/// Many trees batched for level-parallel bottom-up evaluation.
#[derive(Debug, Clone)]
pub struct TreeBatch {
    levels: Vec<TreeLevel>,
    words: IntTensor,
    labels: IntTensor,
    total_nodes: usize,
}

impl TreeBatch {
    /// Batches trees, assigning each node a global id and grouping nodes of
    /// equal height into levels (all leaves first, then height 1, …).
    ///
    /// # Errors
    /// Returns an error for an empty tree list.
    pub fn from_trees(trees: &[Tree]) -> Result<Self> {
        if trees.is_empty() {
            return Err(TensorError::InvalidArgument {
                op: "TreeBatch::from_trees",
                reason: "empty tree list".to_string(),
            });
        }
        let mut words = Vec::new();
        let mut labels = Vec::new();
        // (height, global_id, global children ids)
        let mut annotated: Vec<(usize, usize, Vec<usize>)> = Vec::new();
        let mut offset = 0usize;
        let mut max_height = 0usize;
        for tree in trees {
            let heights = tree.heights();
            for (i, node) in tree.nodes().iter().enumerate() {
                let gid = offset + i;
                words.push(node.word.unwrap_or(-1));
                labels.push(node.label);
                let children: Vec<usize> = node.children.iter().map(|&c| offset + c).collect();
                max_height = max_height.max(heights[i]);
                annotated.push((heights[i], gid, children));
            }
            offset += tree.len();
        }
        let mut levels = Vec::with_capacity(max_height + 1);
        for h in 0..=max_height {
            let members: Vec<&(usize, usize, Vec<usize>)> =
                annotated.iter().filter(|(hh, _, _)| *hh == h).collect();
            if members.is_empty() {
                continue;
            }
            let max_children = members
                .iter()
                .map(|(_, _, c)| c.len())
                .max()
                .unwrap_or(0)
                .max(1);
            let node_ids: Vec<i64> = members.iter().map(|(_, g, _)| *g as i64).collect();
            let mut child_ids = Vec::with_capacity(members.len() * max_children);
            for (_, _, children) in &members {
                for j in 0..max_children {
                    child_ids.push(children.get(j).map_or(-1, |&c| c as i64));
                }
            }
            let len = node_ids.len();
            levels.push(TreeLevel {
                nodes: IntTensor::from_vec(&[len], node_ids)?,
                child_ids: IntTensor::from_vec(&[len * max_children], child_ids)?,
                max_children,
            });
        }
        let n_words = words.len();
        Ok(TreeBatch {
            levels,
            words: IntTensor::from_vec(&[n_words], words)?,
            labels: IntTensor::from_vec(&[n_words], labels)?,
            total_nodes: offset,
        })
    }

    /// Levels in bottom-up order (leaves first).
    pub fn levels(&self) -> &[TreeLevel] {
        &self.levels
    }

    /// Word id per global node (-1 for internal nodes).
    pub fn words(&self) -> &IntTensor {
        &self.words
    }

    /// Label per global node.
    pub fn labels(&self) -> &IntTensor {
        &self.labels
    }

    /// Total node count across all trees.
    pub fn total_nodes(&self) -> usize {
        self.total_nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(word: i64, label: i64) -> TreeNode {
        TreeNode {
            children: vec![],
            word: Some(word),
            label,
        }
    }

    fn internal(children: Vec<usize>, label: i64) -> TreeNode {
        TreeNode {
            children,
            word: None,
            label,
        }
    }

    fn small_tree() -> Tree {
        // (w0 w1) w2 → root combines node3=(0,1) and 2.
        Tree::new(
            vec![
                leaf(10, 0),
                leaf(11, 1),
                leaf(12, 0),
                internal(vec![0, 1], 1),
                internal(vec![3, 2], 2),
            ],
            4,
        )
        .unwrap()
    }

    #[test]
    fn heights_are_bottom_up() {
        let t = small_tree();
        assert_eq!(t.heights(), vec![0, 0, 0, 1, 2]);
        assert_eq!(t.root(), 4);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn tree_validation() {
        assert!(Tree::new(vec![leaf(0, 0)], 3).is_err());
        assert!(Tree::new(vec![internal(vec![5], 0)], 0).is_err());
        assert!(Tree::new(vec![internal(vec![0], 0)], 0).is_err()); // self-child
    }

    #[test]
    fn batch_levels_group_by_height() {
        let batch = TreeBatch::from_trees(&[small_tree(), small_tree()]).unwrap();
        assert_eq!(batch.total_nodes(), 10);
        assert_eq!(batch.levels().len(), 3);
        // Level 0: 6 leaves from both trees.
        assert_eq!(batch.levels()[0].nodes.numel(), 6);
        // Level 1: one internal node per tree.
        assert_eq!(batch.levels()[1].nodes.numel(), 2);
        assert_eq!(batch.levels()[1].max_children, 2);
        // Children of the level-1 node of tree 2 are offset by 5.
        assert_eq!(batch.levels()[1].child_ids.as_slice(), &[0, 1, 5, 6]);
    }

    #[test]
    fn batch_requires_trees() {
        assert!(TreeBatch::from_trees(&[]).is_err());
    }
}
