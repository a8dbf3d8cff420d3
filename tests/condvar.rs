//! The vendored `parking_lot` condvar counts its waiters, so a notify that
//! finds none returns at once instead of making a futex call. These check
//! that the count loses no wakeup and reports what a notify found. (They
//! live here because the vendored crates are not default members.)

use parking_lot::{Condvar, Mutex};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const WAITERS: usize = 4;
const ROUNDS: usize = 2_000;

/// A leader posts rounds; every waiter acknowledges each one.
#[derive(Default)]
struct Handshake {
    /// `(round posted, acknowledgements)`.
    state: Mutex<(usize, usize)>,
    posted: Condvar,
    acked: Condvar,
}

#[test]
fn many_round_handshakes_lose_no_wakeup() {
    let shared = Arc::new(Handshake::default());
    let waiters: Vec<_> = (0..WAITERS)
        .map(|i| {
            let s = shared.clone();
            thread::spawn(move || {
                for round in 1..=ROUNDS {
                    let mut state = s.state.lock();
                    while state.0 < round {
                        // Half the waiters park with a deadline, which they
                        // may outlive and re-check.
                        if i % 2 == 0 {
                            s.posted.wait(&mut state);
                        } else {
                            let deadline = Instant::now() + Duration::from_millis(5);
                            s.posted.wait_until(&mut state, deadline);
                        }
                    }
                    state.1 += 1;
                    // Notified after the mutex is released, as the
                    // publisher's lock manager does.
                    drop(state);
                    s.acked.notify_one();
                }
            })
        })
        .collect();
    let (done, finished) = mpsc::channel();
    let leader = {
        let s = shared.clone();
        thread::spawn(move || {
            for round in 1..=ROUNDS {
                s.state.lock().0 = round;
                s.posted.notify_all();
                let mut state = s.state.lock();
                while state.1 < WAITERS * round {
                    s.acked.wait(&mut state);
                }
            }
            done.send(()).expect("the test thread waits");
        })
    };
    finished
        .recv_timeout(Duration::from_secs(60))
        .expect("every round completes: no wakeup was lost");
    leader.join().unwrap();
    for waiter in waiters {
        waiter.join().unwrap();
    }
}

#[test]
fn a_notify_reports_the_waiters_it_found() {
    let (lock, cv) = (Mutex::new(()), Condvar::new());
    assert!(!cv.notify_one());
    assert_eq!(cv.notify_all(), 0);
    // A waiter that has come and gone leaves none behind.
    let mut guard = lock.lock();
    let deadline = Instant::now() + Duration::from_millis(1);
    assert!(cv.wait_until(&mut guard, deadline).timed_out());
    drop(guard);
    assert!(!cv.notify_one());
    assert_eq!(cv.notify_all(), 0);

    // A waiter holds the mutex from raising its flag until `wait`
    // releases it, so once the flag is seen under the mutex it is
    // waiting, and a notify under the mutex finds it.
    let pair = Arc::new((Mutex::new(false), Condvar::new()));
    let waiter = {
        let pair = pair.clone();
        thread::spawn(move || {
            let (flag, cv) = &*pair;
            let mut waiting = flag.lock();
            *waiting = true;
            while *waiting {
                cv.wait(&mut waiting);
            }
        })
    };
    let (flag, cv) = &*pair;
    loop {
        let mut waiting = flag.lock();
        if *waiting {
            *waiting = false;
            assert!(cv.notify_one());
            break;
        }
        drop(waiting);
        thread::yield_now();
    }
    waiter.join().unwrap();
    assert_eq!(cv.notify_all(), 0);
}
