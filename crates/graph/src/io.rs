//! Plain-text import/export of graphs.
//!
//! A small, dependency-free interchange format so that synthetic datasets can
//! be inspected, diffed, or loaded into external tools:
//!
//! ```text
//! # graph <num_nodes>
//! node <id> <label|-> <f1> <f2> ...
//! edge <u> <v>
//! ```

use crate::graph::Graph;

/// Error produced when parsing the text format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Serializes a graph (structure, labels, features) to the text format.
pub fn graph_to_text(graph: &Graph) -> String {
    let mut out = String::new();
    out.push_str(&format!("# graph {}\n", graph.num_nodes()));
    for v in graph.node_ids() {
        let label = graph
            .label(v)
            .map(|l| l.to_string())
            .unwrap_or_else(|| "-".to_string());
        let feats: Vec<String> = graph.features(v).iter().map(|x| format!("{x}")).collect();
        out.push_str(&format!("node {v} {label} {}\n", feats.join(" ")));
    }
    for (u, v) in graph.edges() {
        out.push_str(&format!("edge {u} {v}\n"));
    }
    out
}

/// Parses a graph from the text format produced by [`graph_to_text`].
pub fn graph_from_text(text: &str) -> Result<Graph, ParseError> {
    let mut graph = Graph::new();
    let mut declared = None;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["#", "graph", n] => {
                let n: usize = n.parse().map_err(|_| ParseError {
                    line: line_no,
                    message: format!("invalid node count '{n}'"),
                })?;
                declared = Some(n);
                while graph.num_nodes() < n {
                    graph.add_node(Vec::new());
                }
            }
            ["node", id, label, feats @ ..] => {
                let id: usize = id.parse().map_err(|_| ParseError {
                    line: line_no,
                    message: format!("invalid node id '{id}'"),
                })?;
                while graph.num_nodes() <= id {
                    graph.add_node(Vec::new());
                }
                if *label != "-" {
                    let l: usize = label.parse().map_err(|_| ParseError {
                        line: line_no,
                        message: format!("invalid label '{label}'"),
                    })?;
                    graph.set_label(id, l);
                }
                let features: Result<Vec<f64>, _> = feats.iter().map(|f| f.parse()).collect();
                graph.set_features(
                    id,
                    features.map_err(|_| ParseError {
                        line: line_no,
                        message: "invalid feature value".to_string(),
                    })?,
                );
            }
            ["edge", u, v] => {
                let u: usize = u.parse().map_err(|_| ParseError {
                    line: line_no,
                    message: format!("invalid endpoint '{u}'"),
                })?;
                let v: usize = v.parse().map_err(|_| ParseError {
                    line: line_no,
                    message: format!("invalid endpoint '{v}'"),
                })?;
                if !graph.contains_node(u) || !graph.contains_node(v) {
                    return Err(ParseError {
                        line: line_no,
                        message: format!("edge ({u},{v}) references an undeclared node"),
                    });
                }
                graph.add_edge(u, v);
            }
            _ => {
                return Err(ParseError {
                    line: line_no,
                    message: format!("unrecognized line '{line}'"),
                })
            }
        }
    }
    if let Some(n) = declared {
        if graph.num_nodes() != n {
            return Err(ParseError {
                line: 1,
                message: format!("declared {n} nodes but found {}", graph.num_nodes()),
            });
        }
    }
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_graph() -> Graph {
        let mut g = Graph::new();
        g.add_labeled_node(vec![1.0, 0.5], 0);
        g.add_labeled_node(vec![0.0, 1.0], 1);
        g.add_node(vec![0.25]);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g
    }

    #[test]
    fn graph_round_trips() {
        let g = sample_graph();
        let text = graph_to_text(&g);
        let parsed = graph_from_text(&text).unwrap();
        assert_eq!(parsed.num_nodes(), g.num_nodes());
        assert_eq!(parsed.edge_vec(), g.edge_vec());
        assert_eq!(parsed.label(0), Some(0));
        assert_eq!(parsed.label(2), None);
        assert_eq!(parsed.features(0), g.features(0));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = graph_from_text("node 0 -\nbogus line\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("unrecognized"));
        let err = graph_from_text("edge 0 1\n").unwrap_err();
        assert!(err.message.contains("undeclared node"));
        let err = graph_from_text("# graph x\n").unwrap_err();
        assert!(err.message.contains("invalid node count"));
    }

    #[test]
    fn declared_count_is_validated() {
        let err = graph_from_text("# graph 2\nnode 5 -\n").unwrap_err();
        assert!(err.message.contains("declared 2 nodes"));
    }

    #[test]
    fn empty_input_parses_to_an_empty_graph() {
        assert_eq!(graph_from_text("").unwrap().num_nodes(), 0);
    }
}
