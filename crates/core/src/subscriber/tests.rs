use super::worker_thread_name;

#[test]
fn worker_thread_names_fit_the_kernels_fifteen_bytes() {
    assert_eq!(worker_thread_name("sub", 0), "w0-sub");
    assert_eq!(
        worker_thread_name("elasticsearch_sub", 3),
        "w3-icsearch_sub"
    );
    assert_eq!(
        worker_thread_name("elasticsearch_sub", 12),
        "w12-csearch_sub"
    );
    // A cut never lands inside a character.
    assert_eq!(worker_thread_name("ééééééé", 0), "w0-éééééé");
    assert_eq!(worker_thread_name("aééééééé", 0), "w0-éééééé");
    for name in ["", "x", "a-very-long-application-name", "ééééééééééé"] {
        assert!(worker_thread_name(name, 7).len() <= 15);
    }
}
