//! Artifact identity is part of the wire contract: a client may hold an
//! artifact id across a server restart — and across a release. These
//! goldens pin the fat binary's content hash and the server's compile-request
//! id for three demo kernels, so a change to how the static compiler *builds*
//! the binary (as opposed to what it builds) is caught if it moves either.

use infs_isa::{Compiler, FatBinary};
use infs_serve::{demo, CompileRequest, Request, RequestBody, ServeConfig, Server};

/// (kernel, `FatBinary::content_hash`, served artifact id), optimizer on;
/// computed at commit e635d65, but for `mat_update`'s content hash,
/// re-recorded when seven Appendix-A rules were deleted. An artifact id keys
/// the compile request, not the binary, so none of them moved.
fn goldens() -> [(infs_frontend::Kernel, u64, &'static str); 3] {
    [
        (demo::scale(4096), 0xd6b9_1878_a751_a71c, "8ee456f2d1317bec"),
        (
            demo::stencil(4096),
            0xd4e8_9c73_59e2_5662,
            "7b55f5f819e83e74",
        ),
        (
            demo::mat_update(64, 12),
            0xa91c_27f1_51fc_1b0d,
            "1136c2ab9f19db22",
        ),
    ]
}

#[test]
fn content_hashes_and_artifact_ids_match_the_goldens() {
    let server = Server::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    for (kernel, want_hash, want_id) in goldens() {
        let name = kernel.name().to_string();
        let mut fb = FatBinary::new();
        fb.push(
            Compiler::default()
                .compile(kernel.clone(), &[])
                .expect("demo kernels compile"),
        );
        let hash = fb.content_hash().expect("hashable");
        let r = server.call(Request {
            id: 1,
            tenant: "identity".into(),
            deadline_ms: None,
            body: RequestBody::Compile(CompileRequest {
                kernel,
                representative_syms: vec![],
                optimize: true,
            }),
        });
        assert!(r.ok, "{name}: compile failed: {:?}", r.error);
        let id = r.artifact.expect("compile yields an artifact");
        assert_eq!(hash, want_hash, "{name}: content hash moved");
        assert_eq!(id, want_id, "{name}: artifact id moved");
    }
}
