//! Model zoo: synthesizes the paper's eight benchmark DNN training graphs.
//!
//! §6.1 trains the GNN over 5 CNNs (VGG-19, ResNet200, Inception-v3,
//! MobileNet-v2, NasNet) and 3 large NLP models (Transformer, BERT-large,
//! XLNet-large). Each generator here builds a *training* DAG — forward,
//! backward and parameter-update ops — with layer structure, parameter
//! sizes and FLOP counts taken from the original architecture papers, so
//! the relative compute/communication balance that drives HeteroG's
//! decisions (e.g. VGG's enormous fully-connected parameters vs its conv
//! compute; BERT's embedding tables; NasNet's wide, branchy cells) is
//! preserved.

pub(crate) mod util;

mod bert;
mod inception;
mod mobilenet;
mod nasnet;
mod resnet;
mod transformer;
mod vgg;
mod xlnet;

use crate::graph::Graph;

/// The benchmark models of §6.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchmarkModel {
    /// VGG-19 [Simonyan & Zisserman '14] — 143.7M params, dominated by FC layers.
    Vgg19,
    /// ResNet-200 [He et al. '16] — deep bottleneck-residual CNN.
    ResNet200,
    /// Inception-v3 [Szegedy et al. '16] — branchy inception modules.
    InceptionV3,
    /// MobileNet-v2 [Sandler et al. '18] — depthwise-separable, tiny params.
    MobileNetV2,
    /// NasNet-A large [Zoph et al. '18] — very wide, branchy searched cells.
    NasNet,
    /// Transformer (encoder-decoder translation model) [Vaswani et al. '17].
    Transformer,
    /// BERT-large [Devlin et al. '18] — 24-layer encoder, 340M params.
    BertLarge,
    /// XLNet-large [Yang et al. '19] — 24-layer two-stream attention.
    XlnetLarge,
}

impl BenchmarkModel {
    /// All eight models in the paper's table order.
    pub fn all() -> [BenchmarkModel; 8] {
        [
            BenchmarkModel::Vgg19,
            BenchmarkModel::ResNet200,
            BenchmarkModel::InceptionV3,
            BenchmarkModel::MobileNetV2,
            BenchmarkModel::NasNet,
            BenchmarkModel::Transformer,
            BenchmarkModel::BertLarge,
            BenchmarkModel::XlnetLarge,
        ]
    }

    /// The five CNN models (Fig. 3(a), Table 5).
    pub fn cnns() -> [BenchmarkModel; 5] {
        [
            BenchmarkModel::Vgg19,
            BenchmarkModel::ResNet200,
            BenchmarkModel::InceptionV3,
            BenchmarkModel::MobileNetV2,
            BenchmarkModel::NasNet,
        ]
    }

    /// Display name matching the paper's tables.
    pub fn display_name(self) -> &'static str {
        match self {
            BenchmarkModel::Vgg19 => "VGG-19",
            BenchmarkModel::ResNet200 => "ResNet200",
            BenchmarkModel::InceptionV3 => "Inception_v3",
            BenchmarkModel::MobileNetV2 => "MobileNet_v2",
            BenchmarkModel::NasNet => "NasNet",
            BenchmarkModel::Transformer => "Transformer",
            BenchmarkModel::BertLarge => "Bert-large",
            BenchmarkModel::XlnetLarge => "XlNet-large",
        }
    }

    /// Default layer count (only meaningful for the depth-parameterized
    /// NLP models; CNNs ignore it).
    pub fn default_layers(self) -> u32 {
        match self {
            BenchmarkModel::Transformer => 6,
            BenchmarkModel::BertLarge | BenchmarkModel::XlnetLarge => 24,
            _ => 0,
        }
    }

    /// Per-iteration batch size used in the paper's 8-GPU experiments
    /// (Table 1).
    pub fn default_batch_8gpu(self) -> u64 {
        match self {
            BenchmarkModel::Transformer => 720,
            BenchmarkModel::BertLarge | BenchmarkModel::XlnetLarge => 48,
            _ => 192,
        }
    }

    /// Canonical CLI/API names, one per model, in table order. These are
    /// the names [`BenchmarkModel::parse`] lists in its error message.
    pub fn canonical_names() -> [&'static str; 8] {
        [
            "vgg19",
            "resnet200",
            "inception",
            "mobilenet",
            "nasnet",
            "transformer",
            "bert",
            "xlnet",
        ]
    }

    /// Parses a user-supplied model name (case-insensitive, with the
    /// common aliases). The error lists every valid canonical name, and
    /// the CLI surfaces it verbatim, so a typo comes with its own help.
    pub fn parse(name: &str) -> Result<BenchmarkModel, String> {
        Ok(match name.to_ascii_lowercase().as_str() {
            "vgg19" | "vgg-19" => BenchmarkModel::Vgg19,
            "resnet200" | "resnet" => BenchmarkModel::ResNet200,
            "inception" | "inception_v3" | "inceptionv3" => BenchmarkModel::InceptionV3,
            "mobilenet" | "mobilenet_v2" | "mobilenetv2" => BenchmarkModel::MobileNetV2,
            "nasnet" => BenchmarkModel::NasNet,
            "transformer" => BenchmarkModel::Transformer,
            "bert" | "bert-large" => BenchmarkModel::BertLarge,
            "xlnet" | "xlnet-large" => BenchmarkModel::XlnetLarge,
            other => {
                return Err(format!(
                    "unknown model {other:?} (valid: {})",
                    BenchmarkModel::canonical_names().join(", ")
                ))
            }
        })
    }

    /// Iterations to reach the target top-5 accuracy (Table 5; derived
    /// from the paper's end-to-end minutes ÷ per-iteration seconds).
    /// Only the five CNNs appear in Table 5.
    pub fn iterations_to_converge(self) -> Option<u64> {
        match self {
            BenchmarkModel::Vgg19 => Some(66_600),
            BenchmarkModel::ResNet200 => Some(54_800),
            BenchmarkModel::InceptionV3 => Some(94_800),
            BenchmarkModel::MobileNetV2 => Some(57_300),
            BenchmarkModel::NasNet => Some(82_900),
            _ => None,
        }
    }
}

impl std::fmt::Display for BenchmarkModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.display_name())
    }
}

/// A fully-specified model instantiation: which architecture, at what
/// global batch size, with how many layers (for depth-parameterized
/// models).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelSpec {
    /// Which benchmark architecture.
    pub model: BenchmarkModel,
    /// Global mini-batch size.
    pub batch_size: u64,
    /// Layer count for Transformer/BERT/XLNet; ignored by CNNs.
    pub layers: u32,
}

impl ModelSpec {
    /// Spec with the model's paper-default layer count.
    pub fn new(model: BenchmarkModel, batch_size: u64) -> Self {
        ModelSpec {
            model,
            batch_size,
            layers: model.default_layers(),
        }
    }

    /// Spec with an explicit layer count (e.g. `Transformer (24 layers)`).
    pub fn with_layers(model: BenchmarkModel, batch_size: u64, layers: u32) -> Self {
        ModelSpec {
            model,
            batch_size,
            layers,
        }
    }

    /// Synthesizes the training graph.
    pub fn build(&self) -> Graph {
        match self.model {
            BenchmarkModel::Vgg19 => vgg::build(self.batch_size),
            BenchmarkModel::ResNet200 => resnet::build(self.batch_size),
            BenchmarkModel::InceptionV3 => inception::build(self.batch_size),
            BenchmarkModel::MobileNetV2 => mobilenet::build(self.batch_size),
            BenchmarkModel::NasNet => nasnet::build(self.batch_size),
            BenchmarkModel::Transformer => transformer::build(self.batch_size, self.layers),
            BenchmarkModel::BertLarge => bert::build(self.batch_size, self.layers),
            BenchmarkModel::XlnetLarge => xlnet::build(self.batch_size, self.layers),
        }
    }

    /// The name [`ModelSpec::build`] stamps on the synthesized graph
    /// (`Graph::name`): lowercase snake case, layer-suffixed for the
    /// depth-parameterized models. Run manifests and `runs list
    /// --model` filter on this stable identifier, not the display
    /// label.
    pub fn graph_name(&self) -> String {
        match self.model {
            BenchmarkModel::Vgg19 => "vgg19".to_string(),
            BenchmarkModel::ResNet200 => "resnet200".to_string(),
            BenchmarkModel::InceptionV3 => "inception_v3".to_string(),
            BenchmarkModel::MobileNetV2 => "mobilenet_v2".to_string(),
            BenchmarkModel::NasNet => "nasnet".to_string(),
            BenchmarkModel::Transformer => format!("transformer_{}l", self.layers),
            BenchmarkModel::BertLarge => format!("bert_large_{}l", self.layers),
            BenchmarkModel::XlnetLarge => format!("xlnet_large_{}l", self.layers),
        }
    }

    /// Label in the paper's table style, e.g. `"Bert-large (24 layers)(48)"`.
    pub fn label(&self) -> String {
        if self.model.default_layers() > 0 {
            format!(
                "{} ({} layers)({})",
                self.model, self.layers, self.batch_size
            )
        } else {
            format!("{} ({})", self.model, self.batch_size)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::GraphStats;

    #[test]
    fn graph_name_matches_built_graph() {
        for m in BenchmarkModel::all() {
            let spec = ModelSpec::new(m, 32);
            assert_eq!(spec.graph_name(), spec.build().name, "{m}");
        }
    }

    #[test]
    fn all_models_build_valid_graphs() {
        for m in BenchmarkModel::all() {
            let g = ModelSpec::new(m, 32).build();
            g.validate().unwrap_or_else(|e| panic!("{m}: {e}"));
            assert!(g.len() > 50, "{m} suspiciously small: {} ops", g.len());
            let s = GraphStats::of(&g);
            assert!(s.grad_producers > 0, "{m} has no parameter gradients");
            assert_eq!(
                s.grad_producers, s.param_ops,
                "{m}: every param op needs exactly one grad producer"
            );
        }
    }

    #[test]
    fn parameter_sizes_are_realistic() {
        // Published parameter counts (±25% tolerance for our synthesis).
        let expect: &[(BenchmarkModel, f64)] = &[
            (BenchmarkModel::Vgg19, 143.7e6),
            (BenchmarkModel::ResNet200, 64.7e6),
            (BenchmarkModel::InceptionV3, 23.8e6),
            (BenchmarkModel::MobileNetV2, 3.5e6),
            (BenchmarkModel::NasNet, 88.9e6),
            (BenchmarkModel::Transformer, 61.0e6),
            (BenchmarkModel::BertLarge, 340.0e6),
            (BenchmarkModel::XlnetLarge, 360.0e6),
        ];
        for &(m, want) in expect {
            let g = ModelSpec::new(m, 32).build();
            let got = g.total_param_bytes() as f64 / 4.0;
            let ratio = got / want;
            assert!(
                (0.7..=1.35).contains(&ratio),
                "{m}: {got:.3e} params vs published {want:.3e} (ratio {ratio:.2})"
            );
        }
    }

    #[test]
    fn flops_scale_with_batch() {
        for m in BenchmarkModel::all() {
            let g1 = ModelSpec::new(m, 16).build();
            let g2 = ModelSpec::new(m, 32).build();
            assert!(
                g2.total_flops() > 1.5 * g1.total_flops(),
                "{m}: FLOPs must grow with batch"
            );
        }
    }

    #[test]
    fn nlp_models_scale_with_layers() {
        for m in [
            BenchmarkModel::Transformer,
            BenchmarkModel::BertLarge,
            BenchmarkModel::XlnetLarge,
        ] {
            let small = ModelSpec::with_layers(m, 16, 6).build();
            let large = ModelSpec::with_layers(m, 16, 24).build();
            assert!(
                large.len() > 2 * small.len(),
                "{m}: op count must grow with layers"
            );
        }
    }

    #[test]
    fn labels_match_paper_style() {
        assert_eq!(
            ModelSpec::new(BenchmarkModel::Vgg19, 192).label(),
            "VGG-19 (192)"
        );
        assert_eq!(
            ModelSpec::with_layers(BenchmarkModel::BertLarge, 48, 24).label(),
            "Bert-large (24 layers)(48)"
        );
    }

    #[test]
    fn parse_accepts_aliases_and_lists_names_on_error() {
        for name in BenchmarkModel::canonical_names() {
            assert!(BenchmarkModel::parse(name).is_ok(), "{name} must parse");
        }
        assert_eq!(
            BenchmarkModel::parse("BERT-Large").unwrap(),
            BenchmarkModel::BertLarge
        );
        assert_eq!(
            BenchmarkModel::parse("mobilenet_v2").unwrap(),
            BenchmarkModel::MobileNetV2
        );
        let err = BenchmarkModel::parse("alexnet").unwrap_err();
        assert!(err.contains("unknown model \"alexnet\""), "{err}");
        for name in BenchmarkModel::canonical_names() {
            assert!(err.contains(name), "error must list {name}: {err}");
        }
    }

    #[test]
    fn vgg_fc_dominates_params() {
        // The paper (Table 2 discussion) relies on VGG's last FC layers
        // holding most parameters; verify our synthesis preserves that.
        let g = ModelSpec::new(BenchmarkModel::Vgg19, 32).build();
        let max_param = g.iter().map(|(_, n)| n.param_bytes).max().unwrap();
        assert!(
            max_param as f64 > 0.5 * g.total_param_bytes() as f64 * 0.6 / 1.0_f64.max(1.0)
                || max_param > 100_000_000,
            "VGG-19 largest layer should be the ~103M-param FC1, got {max_param} bytes"
        );
    }

    #[test]
    fn nasnet_is_branchy() {
        // NasNet cells create lots of concurrent branches; mean out-degree
        // should exceed a plain chain's.
        let g = ModelSpec::new(BenchmarkModel::NasNet, 32).build();
        let branchy = g.op_ids().filter(|&id| g.succs(id).len() >= 2).count();
        assert!(
            branchy as f64 > 0.1 * g.len() as f64,
            "NasNet should be branchy"
        );
    }
}
