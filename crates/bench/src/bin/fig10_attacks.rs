//! Figure 10: the attack-surface walkthrough — every adversary scenario
//! from §5.5 executed against the simulated platform, with the defense
//! that stopped it.

use hix_attacks::{run_all, Verdict};

fn main() {
    println!("== Figure 10: attack-surface analysis (executable) ==\n");
    println!("{:<4} {:<26} {:<50} result", "pt", "scenario", "attack");
    let mut all_held = true;
    for report in run_all() {
        let point = if report.figure_point == 0 {
            "-".to_string()
        } else {
            report.figure_point.to_string()
        };
        match &report.verdict {
            Verdict::Blocked { mechanism } => {
                println!(
                    "{:<4} {:<26} {:<50} BLOCKED by {mechanism}",
                    point, report.name, report.attack
                );
            }
            Verdict::Breached { detail } => {
                all_held = false;
                println!(
                    "{:<4} {:<26} {:<50} *** BREACHED: {detail}",
                    point, report.name, report.attack
                );
            }
        }
    }
    println!();
    if all_held {
        println!("all defenses held (paper: every ①–⑥ attack is defeated)");
    } else {
        println!("SECURITY REGRESSION: at least one defense failed");
        std::process::exit(1);
    }
}
